"""The store's coalescing ``WriteBatch``: every data record stages
there and reaches the device when it flushes."""

import pytest

from repro.errors import ObjectStoreError
from repro.fault import names as fault_names
from repro.fault.registry import FailpointRegistry, FaultAction
from repro.hw.nvme import NvmeDevice
from repro.objstore import MAX_BATCH_EXTENT
from repro.objstore.store import ObjectStore
from repro.sim.clock import SimClock
from repro.units import PAGE_SIZE


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def nvme(clock):
    return NvmeDevice(clock, queue_depth=8)


@pytest.fixture
def store(nvme):
    return ObjectStore(nvme)


class TestCoalescing:
    def test_contiguous_records_merge_into_one_command(self, store, nvme):
        batch = store.batch
        refs = [store.write_page(b"pg-%04d" % i) for i in range(32)]
        writes_before = nvme.stats.writes
        batch.flush()
        # Next-fit allocation lays the records end-to-end, so the
        # whole batch coalesces into a single multi-page extent.
        assert nvme.stats.writes - writes_before == 1
        assert nvme.stats.doorbells == 1
        assert store.stats.batch_records == 32
        assert store.stats.batch_extents == 1
        for i, ref in enumerate(refs):
            assert store.read_page(ref) == b"pg-%04d" % i

    def test_logical_cap_splits_runs(self, store, monkeypatch):
        # Probe the on-media record size (page + framing), then cap
        # each coalesced command at exactly two records.  The cap
        # applies to RAW page inflation; codec off so every record is
        # the same size (codec behaviour is pinned in test_codec.py).
        store.codec.enabled = False
        batch = store.batch
        store.write_page(b"probe")
        per_record = batch.pending_bytes
        batch.flush()
        monkeypatch.setattr(
            "repro.objstore.store.MAX_BATCH_EXTENT", 2 * per_record
        )
        for i in range(8):
            store.write_page(b"cap-%04d" % i)
        batch.flush()
        assert store.stats.batch_extents == 1 + 4

    def test_default_cap_bounds_on_media_run_size(self, store, nvme):
        store.codec.enabled = False  # cap semantics on RAW page inflation
        pages = 2 * MAX_BATCH_EXTENT // PAGE_SIZE
        batch = store.batch
        for i in range(pages):
            store.write_page(b"big-%04d" % i)
        buffered = batch.pending_bytes
        batch.flush()
        assert buffered > MAX_BATCH_EXTENT
        assert store.stats.batch_extents >= 2
        assert store.stats.batch_bytes == buffered

    def test_meta_and_pages_mix(self, store):
        meta = store.write_meta(oid=7, value={"pid": 7})
        page = store.write_page(b"payload")
        store.batch.flush()
        assert store.read_meta(meta) == {"pid": 7}
        assert store.read_page(page) == b"payload"

    def test_empty_flush_is_noop(self, store, nvme):
        assert store.batch.flush() == []
        assert nvme.stats.doorbells == 0
        assert store.stats.batches_flushed == 0


class TestDedupInBatch:
    def test_dedup_hit_skips_buffering(self, store):
        a = store.write_page(b"identical")
        b = store.write_page(b"identical")
        assert a.extent.offset == b.extent.offset
        assert len(store.batch) == 1
        store.batch.flush()
        assert store.stats.pages_written == 1
        assert store.stats.pages_deduped == 1

    def test_dedup_against_prior_unbatched_write(self, store):
        # the earlier write is already on the device, not in the batch
        first = store.write_page(b"seen before")
        store.batch.flush()
        again = store.write_page(b"seen before")
        assert again.extent.offset == first.extent.offset
        assert len(store.batch) == 0


class TestCommitOrdering:
    def test_commit_auto_flushes_open_batch(self, store):
        refs = [store.write_page(b"auto-%d" % i) for i in range(4)]
        snap = store.commit_snapshot(
            "auto", meta=None, records=[], pages=refs
        )
        assert len(store.batch) == 0
        assert store.stats.batches_flushed == 1
        _meta, _records, pages, _lineage = store.load_manifest(snap)
        assert [store.read_page(p) for p in pages] == [
            b"auto-%d" % i for i in range(4)
        ]

    def test_superblock_ordered_after_batch_data(self, store, nvme):
        # FIFO durability: everything submitted before the superblock
        # completes no later than it, so a named snapshot implies all
        # of its batched records are on media.
        refs = [store.write_page(b"ord-%d" % i) for i in range(8)]
        store.commit_snapshot("ordered", meta=None, records=[], pages=refs)
        data_done = max(t.completes_at for t in store.batch.last_tickets)
        assert nvme.pending_deadline() >= data_done


class TestBatchCrash:
    def arm(self, clock, store, site, action):
        registry = FailpointRegistry(clock=clock, seed=2)
        store.attach_faults(registry)
        store.device.attach_faults(registry)
        registry.arm(site, action)
        return registry

    def test_crash_at_batch_boundary_loses_only_unnamed(
        self, clock, store, nvme
    ):
        durable = store.commit_snapshot(
            "durable", meta=None, records=[],
            pages=[store.write_page(b"kept")],
        )
        nvme.flush_barrier()
        self.arm(clock, store, fault_names.FP_STORE_BATCH_FLUSH,
                 FaultAction("fail"))
        for i in range(4):
            store.write_page(b"lost-%d" % i)
        with pytest.raises(ObjectStoreError):
            store.commit_snapshot("torn", meta=None, records=[], pages=[])
        nvme.crash()  # the power cut, at the batch boundary
        report = store.recover()
        assert not report.errors
        names = [s.name for s in store.snapshots()]
        assert "durable" in names and "torn" not in names
        _meta, _records, pages, _lineage = store.load_manifest(
            store.snapshot_by_name("durable")
        )
        assert store.read_page(pages[0]) == b"kept"

    def test_flush_failure_leaves_store_usable(self, clock, store):
        self.arm(clock, store, fault_names.FP_STORE_BATCH_FLUSH,
                 FaultAction("fail"))
        batch = store.batch
        store.write_page(b"doomed")
        with pytest.raises(ObjectStoreError):
            batch.flush()
        # The armed point fired once, before anything was submitted:
        # the record is still staged and the retry carries it too.
        store.write_page(b"retried")
        batch.flush()
        assert store.stats.batches_flushed == 1
        assert store.stats.batch_records == 2

    def test_recover_drops_open_batch(self, clock, store, nvme):
        abandoned = store.batch
        store.write_page(b"abandoned")
        nvme.crash()
        store.recover()
        assert store.batch is not abandoned and len(store.batch) == 0


class TestAccounting:
    def test_store_stats_and_bytes(self, store):
        batch = store.batch
        for i in range(6):
            store.write_page(b"acct-%d" % i)
        buffered = batch.pending_bytes
        # Tiny compressible payloads on an armed device go through the
        # write-path codec: the buffered media footprint is a fraction
        # of what six raw pages would have cost.
        assert buffered < 6 * PAGE_SIZE
        assert store.stats.pages_compressed == 6
        assert store.stats.encoded_bytes_saved > 0
        batch.flush()
        assert store.stats.batches_flushed == 1
        assert store.stats.batch_records == 6
        assert store.stats.batch_extents >= 1
        assert store.stats.batch_bytes == buffered

    def test_batch_reusable_across_flushes(self, store):
        batch = store.batch
        store.write_page(b"first wave")
        batch.flush()
        store.write_page(b"second wave")
        batch.flush()
        assert store.stats.batches_flushed == 2
        assert store.stats.batch_records == 2
