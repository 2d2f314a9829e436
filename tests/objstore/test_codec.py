"""The write-path page codec: classify, encode, decode, and its
store/fsck integration (compression + delta-encoded incrementals)."""

import hashlib

import pytest

from repro.errors import ChecksumError, ObjectStoreError
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import DEFAULT_CPU, OPTANE_900P, with_queue_model
from repro.objstore.codec import (
    DELTA_MAX_DIRTY,
    MAX_DELTA_CHAIN,
    DeltaChainTooDeep,
    PageCodec,
    coalesce_extents,
    delta_info,
)
from repro.objstore.fsck import (
    DELTA_BROKEN_BASE,
    DELTA_CHAIN_TOO_DEEP,
    check_store,
    repair_store,
)
from repro.objstore.record import (
    ENC_DELTA,
    ENC_RAW,
    ENC_ZLIB,
    HEADER_SIZE,
    encode,
)
from repro.objstore.store import ObjectStore
from repro.sim.clock import SimClock
from repro.units import PAGE_SIZE


def incompressible(nbytes: int, seed: bytes = b"codec") -> bytes:
    """Deterministic pseudo-random bytes (a SHA-256 chain — the lint
    bans the random module, and zlib cannot shrink digest output)."""
    out = bytearray()
    block = seed
    while len(out) < nbytes:
        block = hashlib.sha256(block).digest()
        out += block
    return bytes(out[:nbytes])


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def store(clock):
    return ObjectStore(NvmeDevice(clock, queue_depth=8))


@pytest.fixture
def codec():
    return PageCodec(with_queue_model(OPTANE_900P, 8), DEFAULT_CPU)


class TestClassify:
    def test_compressible_page_stores_compressed(self, codec):
        plan = codec.plan(b"text " * 512)
        assert plan.flags == ENC_ZLIB
        assert plan.media_bytes < HEADER_SIZE + PAGE_SIZE
        assert plan.bytes_saved > 0
        assert plan.cpu_ns == DEFAULT_CPU.page_compress_ns

    def test_incompressible_page_stays_raw(self, codec):
        plan = codec.plan(incompressible(PAGE_SIZE))
        assert plan.flags == ENC_RAW
        assert plan.media_bytes == HEADER_SIZE + PAGE_SIZE
        assert plan.cpu_ns == 0.0

    def test_marginal_savings_below_crossover_stay_raw(self, codec):
        # Mostly-incompressible content: zlib shaves a few bytes, but
        # fewer than the JASS crossover (device ns saved <= compress
        # ns), so the codec declines to burn the CPU.
        payload = incompressible(PAGE_SIZE - 128) + bytes(128)
        saved = PAGE_SIZE - len(
            __import__("zlib").compress(payload, 1)
        )
        crossover = (
            DEFAULT_CPU.page_compress_ns * codec.spec.write_bandwidth / 1e9
        )
        assert 0 < saved <= crossover  # the case this test pins
        assert codec.plan(payload).flags == ENC_RAW

    def test_disarmed_codec_is_raw_only(self):
        codec = PageCodec(OPTANE_900P, DEFAULT_CPU)  # queue_depth == 0
        assert not codec.enabled
        assert codec.plan(b"text " * 512).flags == ENC_RAW

    def test_small_dirty_footprint_becomes_delta(self, codec):
        base = incompressible(PAGE_SIZE, seed=b"base")
        payload = base[:100] + b"dirty!" + base[106:]
        plan = codec.plan(
            payload, base_hash=b"\x01" * 20, base_depth=0,
            dirty_extents=[(100, 6)],
        )
        assert plan.flags == ENC_DELTA
        assert plan.depth == 1
        assert plan.base_hash == b"\x01" * 20
        assert plan.media_bytes < HEADER_SIZE + 256

    def test_no_dirty_extents_means_no_delta(self, codec):
        payload = incompressible(PAGE_SIZE)
        plan = codec.plan(payload, base_hash=b"\x01" * 20, dirty_extents=[])
        assert plan.flags == ENC_RAW  # fell through to (in)compression

    def test_large_dirty_footprint_declines_delta(self, codec):
        payload = incompressible(PAGE_SIZE)
        plan = codec.plan(
            payload, base_hash=b"\x01" * 20,
            dirty_extents=[(0, DELTA_MAX_DIRTY + 1)],
        )
        assert plan.flags != ENC_DELTA

    def test_chain_at_max_depth_forces_full_write(self, codec):
        payload = incompressible(PAGE_SIZE)
        plan = codec.plan(
            payload, base_hash=b"\x01" * 20,
            base_depth=MAX_DELTA_CHAIN, dirty_extents=[(0, 8)],
        )
        assert plan.flags == ENC_RAW  # re-anchor: full page, depth 0
        assert plan.depth == 0


class TestRoundTrip:
    def test_compressed_round_trip(self, codec):
        payload = b"round trip " * 300
        plan = codec.plan(payload)
        assert plan.flags == ENC_ZLIB
        out = codec.decode_page(plan.flags, plan.stored, lambda h: b"")
        assert out == payload

    def test_delta_round_trip(self, codec):
        base = incompressible(PAGE_SIZE, seed=b"rt-base")
        payload = base[:64] + b"patched" + base[71:]
        plan = codec.plan(
            payload, base_hash=b"\x02" * 20, dirty_extents=[(64, 7)],
        )
        assert plan.flags == ENC_DELTA
        out = codec.decode_page(plan.flags, plan.stored, lambda h: base)
        assert out == payload

    def test_decode_depth_bound(self, codec):
        plan = codec.plan(
            incompressible(PAGE_SIZE), base_hash=b"\x03" * 20,
            dirty_extents=[(0, 4)],
        )
        with pytest.raises(DeltaChainTooDeep):
            codec.decode_page(
                plan.flags, plan.stored, lambda h: b"", _depth=MAX_DELTA_CHAIN
            )

    def test_torn_delta_payload_is_checksum_error(self):
        with pytest.raises(ChecksumError):
            delta_info(b"\x00garbage")
        with pytest.raises(ChecksumError):
            # structurally valid but out-of-bounds extent
            delta_info(encode({
                "base": b"\x04" * 20, "depth": 1, "len": 16,
                "ext": [[PAGE_SIZE - 2, b"overrun"]],
            }))

    def test_unknown_encoding_rejected(self, codec):
        with pytest.raises(ObjectStoreError):
            codec.decode_page(7, b"", lambda h: b"")

    def test_coalesce_merges_overlaps(self):
        assert coalesce_extents([(12, 8), (10, 5), (40, 2)]) == [
            (10, 10), (40, 2)
        ]
        # adjacent runs merge too
        assert coalesce_extents([(0, 4), (4, 4)]) == [(0, 8)]


class TestStoreIntegration:
    def test_write_read_delta_chain(self, store):
        contents = [incompressible(PAGE_SIZE, seed=b"chain")]
        refs = [store.write_page(contents[0])]
        for i in range(1, 4):
            prev = contents[-1]
            patched = prev[:32] + b"v%03d" % i + prev[36:]
            contents.append(patched)
            refs.append(store.write_page(
                patched, delta_base=ObjectStore.page_hash(prev),
                dirty_extents=[(32, 4)],
            ))
        assert store.stats.pages_delta == 3
        for ref, content in zip(refs, contents):
            assert store.read_page(ref) == content

    def test_zero_length_delta_elides_the_write(self, store):
        content = incompressible(PAGE_SIZE, seed=b"same")
        first = store.write_page(content)
        written = store.stats.pages_written
        # Redirtied then restored to identical bytes: the content hash
        # matches the base, so this is a dedup hit — no record at all.
        again = store.write_page(
            content, delta_base=ObjectStore.page_hash(content),
            dirty_extents=[(0, 8)],
        )
        assert again.extent.offset == first.extent.offset
        assert store.stats.pages_written == written
        assert store.stats.pages_deduped == 1
        assert store.stats.pages_delta == 0

    def test_chain_reanchors_at_max_depth(self, store):
        content = incompressible(PAGE_SIZE, seed=b"anchor")
        store.write_page(content)
        for i in range(MAX_DELTA_CHAIN + 2):
            prev_hash = ObjectStore.page_hash(content)
            content = content[:64] + b"r%04d" % i + content[69:]
            store.write_page(
                content, delta_base=prev_hash, dirty_extents=[(64, 5)],
            )
        # depths 1..MAX chain up; the next write re-anchors as a full
        # record (depth 0) and the one after chains off the new anchor
        assert store.stats.pages_delta == MAX_DELTA_CHAIN + 1
        depths = [entry.depth for entry in store.dedup.entries().values()]
        assert max(depths) == MAX_DELTA_CHAIN

    def test_missing_base_falls_back_to_full_write(self, store):
        content = incompressible(PAGE_SIZE, seed=b"nobase")
        ref = store.write_page(
            content, delta_base=b"\x05" * 20, dirty_extents=[(0, 4)],
        )
        assert store.stats.pages_delta == 0
        assert store.read_page(ref) == content

    def test_commit_pins_transitive_bases(self, store):
        base = incompressible(PAGE_SIZE, seed=b"pin")
        base_ref = store.write_page(base)
        patched = base[:16] + b"pinned" + base[22:]
        delta_ref = store.write_page(
            patched, delta_base=ObjectStore.page_hash(base),
            dirty_extents=[(16, 6)],
        )
        old = store.commit_snapshot(
            "old", meta=None, records=[], pages=[base_ref]
        )
        new = store.commit_snapshot(
            "new", meta=None, records=[], pages=[delta_ref]
        )
        _m, _r, new_pages, _lineage = store.load_manifest(new)
        assert {p.content_hash for p in new_pages} == {
            base_ref.content_hash, delta_ref.content_hash
        }
        # Deleting the base's own snapshot must not free the base out
        # from under the live delta.
        store.delete_snapshot(old.snap_id)
        store.flush_barrier()
        assert store.read_page(delta_ref) == patched

    def test_coalesced_restore_reads_decode(self, store):
        base = incompressible(PAGE_SIZE, seed=b"coal")
        patched = base[:8] + b"restored" + base[16:]
        refs = [
            store.write_page(base),
            store.write_page(b"compress me " * 300),
            store.write_page(
                patched, delta_base=ObjectStore.page_hash(base),
                dirty_extents=[(8, 8)],
            ),
        ]
        store.flush_barrier()
        contents = store.read_pages_coalesced(refs)
        assert contents[refs[0].content_hash] == base
        assert contents[refs[1].content_hash] == b"compress me " * 300
        assert contents[refs[2].content_hash] == patched

    def test_recovery_rebuilds_encoded_store(self, clock):
        device = NvmeDevice(clock, queue_depth=8)
        store = ObjectStore(device)
        base = incompressible(PAGE_SIZE, seed=b"recover")
        patched = base[:40] + b"durable" + base[47:]
        refs = [
            store.write_page(base),
            store.write_page(
                patched, delta_base=ObjectStore.page_hash(base),
                dirty_extents=[(40, 7)],
            ),
            store.write_page(b"zipped " * 500),
        ]
        store.commit_snapshot("enc", meta=None, records=[], pages=refs)
        store.flush_barrier()
        device.crash()
        fresh = ObjectStore(device)
        report = fresh.recover()
        assert not report.errors
        for ref, content in zip(refs, [base, patched, b"zipped " * 500]):
            assert fresh.read_page(ref) == content
        # the delta maps rebuilt, so new deltas chain with correct depth
        assert fresh.dedup.get(refs[1].content_hash).depth == 1

    def test_encoding_stats_and_gauge(self, clock):
        from repro.obs import KernelObs
        from repro.obs import names as obs_names

        device = NvmeDevice(clock, queue_depth=8)
        store = ObjectStore(device)
        obs = KernelObs(clock, label="codec-test")
        store.attach_obs(obs)
        store.write_page(b"gauge " * 400)
        base = incompressible(PAGE_SIZE, seed=b"gauge")
        store.write_page(base)
        patched = base[:4] + b"obs" + base[7:]
        store.write_page(
            patched, delta_base=ObjectStore.page_hash(base),
            dirty_extents=[(4, 3)],
        )
        assert obs.registry.counter(
            obs_names.C_STORE_PAGES_COMPRESSED, store=device.name
        ).value == 1
        assert obs.registry.counter(
            obs_names.C_STORE_PAGES_DELTA, store=device.name
        ).value == 1
        saved = obs.registry.counter(
            obs_names.C_STORE_ENCODED_BYTES_SAVED, store=device.name
        ).value
        assert saved == store.stats.encoded_bytes_saved > 0
        ratio = obs.registry.gauge(
            obs_names.G_STORE_COMPRESSION_RATIO, store=device.name
        ).value
        assert 0 < ratio < 1000
        assert ratio == (
            store.stats.page_media_bytes * 1000
            // store.stats.page_full_bytes
        )
        # the `sls stats` table renders one row per store
        from repro.obs import render_store_encoding

        table = render_store_encoding(obs.registry)
        assert table is not None
        assert device.name in table
        assert "media%" in table and "delta" in table

    def test_encoding_table_absent_without_codec_metrics(self, clock):
        from repro.obs import KernelObs, render_store_encoding

        obs = KernelObs(clock, label="no-codec")
        assert render_store_encoding(obs.registry) is None


class TestFsckClassification:
    def _store_with_delta(self, clock):
        device = NvmeDevice(clock, queue_depth=8)
        store = ObjectStore(device)
        base = incompressible(PAGE_SIZE, seed=b"fsck")
        patched = base[:24] + b"fscked" + base[30:]
        refs = [
            store.write_page(base),
            store.write_page(
                patched, delta_base=ObjectStore.page_hash(base),
                dirty_extents=[(24, 6)],
            ),
        ]
        store.commit_snapshot("deltas", meta=None, records=[], pages=refs)
        store.flush_barrier()
        return device, store, refs

    def test_intact_delta_store_fscks_clean(self, clock):
        _device, store, _refs = self._store_with_delta(clock)
        assert check_store(store).clean

    def test_torn_delta_record_exactly_repairs(self, clock):
        device, store, refs = self._store_with_delta(clock)
        offset = refs[1].extent.offset + HEADER_SIZE + 2
        device.flip(offset)
        report = repair_store(store)
        assert report.findings and report.repaired_all
        assert check_store(store).clean
        # the base rode along into quarantine-salvage untouched: its
        # content is still byte-identical wherever it survived
        for snapshot in store.snapshots():
            _m, _r, pages, _lineage = store.load_manifest(snapshot)
            for page in pages:
                if page.content_hash == refs[0].content_hash:
                    assert store.read_page(page) is not None

    def test_broken_base_classified(self, clock):
        device, store, refs = self._store_with_delta(clock)
        # smash the *base* record: the base reports its own corruption,
        # the dependent delta classifies as delta-broken-base
        offset = refs[0].extent.offset + HEADER_SIZE + 2
        device.flip(offset)
        report = check_store(store)
        kinds = set(report.counts())
        assert DELTA_BROKEN_BASE in kinds

    def test_over_deep_chain_classified(self, clock):
        device, store, refs = self._store_with_delta(clock)
        # rewrite the delta record claiming a self-referential base:
        # reconstruction recurses past MAX_DELTA_CHAIN
        stored = encode({
            "base": refs[1].content_hash, "depth": 1, "len": PAGE_SIZE,
            "ext": [[0, b"loop"]],
        })
        from repro.objstore.record import KIND_PAGE, pack_record

        raw = pack_record(
            kind=KIND_PAGE, oid=0, epoch=0, payload=stored, flags=ENC_DELTA
        )
        assert len(raw) <= refs[1].extent.length
        device.write(refs[1].extent.offset, raw)
        report = check_store(store)
        assert DELTA_CHAIN_TOO_DEEP in set(report.counts())
