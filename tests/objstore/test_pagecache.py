"""Restore-side page cache: LRU mechanics, determinism, and safety.

The safety contract is the one ISSUE 10 pins: a stale cached page must
never survive a repair — snapshot delete, crash recovery, fsck repair,
and scrub damage findings all drop the affected entries — and the
scrubber itself must read the media, never the cache.
"""

import pytest

from repro.cli.recovery import build_demo_store, inject
from repro.hw.nvme import NvmeDevice
from repro.objstore import ObjectStore, Scrubber
from repro.objstore.fsck import Fsck
from repro.objstore.pagecache import (
    DEFAULT_PAGE_CACHE_BYTES,
    FaultOrderLog,
    PageCache,
)
from repro.sim.clock import SimClock
from repro.units import KIB


def h(i: int) -> bytes:
    return bytes([i]) * 20


class TestLruMechanics:
    def test_fill_hit_and_lru_eviction(self):
        cache = PageCache(capacity_bytes=3 * KIB)
        for i in range(3):
            cache.put(h(i), bytes([i]) * KIB)
        assert len(cache) == 3
        # Touch h(0) so h(1) becomes the LRU victim.
        assert cache.get(h(0)) == bytes([0]) * KIB
        cache.put(h(3), bytes([3]) * KIB)
        assert h(1) not in cache
        assert h(0) in cache and h(2) in cache and h(3) in cache
        assert cache.evictions == 1
        assert cache.bytes_cached == 3 * KIB

    def test_hit_miss_accounting(self):
        cache = PageCache(capacity_bytes=KIB)
        assert cache.get(h(1)) is None
        cache.put(h(1), b"x" * 64)
        assert cache.get(h(1)) == b"x" * 64
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate_permille == 500

    def test_oversized_page_is_not_cached(self):
        cache = PageCache(capacity_bytes=KIB)
        cache.put(h(1), b"x" * (2 * KIB))
        assert len(cache) == 0

    def test_duplicate_put_is_a_refresh_not_a_refill(self):
        cache = PageCache(capacity_bytes=2 * KIB)
        cache.put(h(1), b"a" * KIB)
        cache.put(h(2), b"b" * KIB)
        cache.put(h(1), b"a" * KIB)  # refresh: h(2) is now the victim
        assert cache.insertions == 2
        cache.put(h(3), b"c" * KIB)
        assert h(2) not in cache and h(1) in cache

    def test_disabled_cache_is_a_noop(self):
        cache = PageCache(capacity_bytes=0)
        assert not cache.enabled
        cache.put(h(1), b"x")
        assert cache.get(h(1)) is None
        assert cache.peek(h(1)) is None
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_peek_is_unaccounted(self):
        cache = PageCache(capacity_bytes=KIB)
        cache.put(h(1), b"x")
        assert cache.peek(h(1)) == b"x"
        assert cache.peek(h(2)) is None
        assert (cache.hits, cache.misses) == (0, 0)

    def test_invalidate_and_clear(self):
        cache = PageCache(capacity_bytes=4 * KIB)
        cache.put(h(1), b"a" * 128)
        cache.put(h(2), b"b" * 128)
        assert cache.invalidate(h(1))
        assert not cache.invalidate(h(1))  # already gone
        assert cache.bytes_cached == 128
        assert cache.clear() == 1
        assert cache.invalidations == 2
        assert len(cache) == 0 and cache.bytes_cached == 0

    def test_resize_shrinks_lru_first_and_zero_disables(self):
        cache = PageCache(capacity_bytes=3 * KIB, record_trace=True)
        for i in range(3):
            cache.put(h(i), bytes([i]) * KIB)
        cache.resize(1 * KIB)
        assert list(cache._entries) == [h(2)]
        assert cache.evictions == 2
        cache.resize(0)
        assert not cache.enabled and len(cache) == 0
        # every drop is one counted, traced eviction, LRU first
        assert cache.evictions == 3
        evicted = [line for line in cache.trace if line.startswith("evict")]
        assert evicted == [f"evict {h(i).hex()}" for i in range(3)]


class TestStoreIntegration:
    def _page_refs(self, store, name):
        snapshot = store.snapshot_by_name(name)
        _meta, _records, pages, _lineage = store.load_manifest(snapshot)
        return pages

    def test_read_page_fills_then_hits(self):
        _device, store, _obs = build_demo_store()
        ref = self._page_refs(store, "demo-0")[0]
        first = store.read_page(ref)
        assert store.pagecache.misses == 1
        assert ref.content_hash in store.pagecache
        second = store.read_page(ref)
        assert second == first
        assert store.pagecache.hits == 1

    def test_cache_hit_skips_the_device(self):
        device, store, _obs = build_demo_store()
        ref = self._page_refs(store, "demo-0")[0]
        store.read_page(ref)
        before = device.clock.now
        store.read_page(ref)
        hit_ns = device.clock.now - before
        # A hit charges at most a CPU page copy, not a device round-trip.
        assert 0 <= hit_ns < 10_000

    def test_coalesced_read_serves_cached_refs_without_device_ops(self):
        device, store, _obs = build_demo_store()
        refs = self._page_refs(store, "demo-0")
        payloads = store.read_pages_coalesced(refs)
        before = device.clock.now
        again = store.read_pages_coalesced(refs)
        assert again == payloads
        assert device.clock.now == before  # pure cache hits: no I/O
        assert store.pagecache.hits == len(again)

    def test_prefetch_is_unaccounted_and_warms_the_cache(self):
        _device, store, _obs = build_demo_store()
        refs = self._page_refs(store, "demo-0")
        warmed = store.prefetch_pages(refs)
        assert warmed == len({r.content_hash for r in refs})
        assert (store.pagecache.hits, store.pagecache.misses) == (0, 0)
        # Every subsequent demand read is a hit.
        store.read_pages_coalesced(refs)
        assert store.pagecache.misses == 0
        assert store.pagecache.hit_rate_permille == 1000

    def test_prefetch_on_disabled_cache_is_a_noop(self):
        device, store, _obs = build_demo_store()
        refs = self._page_refs(store, "demo-0")
        store.pagecache.resize(0)
        before = device.clock.now
        assert store.prefetch_pages(refs) == 0
        assert device.clock.now == before

    def test_disabled_cache_reads_through_every_time(self):
        device, store, _obs = build_demo_store()
        store.pagecache.resize(0)
        ref = self._page_refs(store, "demo-0")[0]
        first = store.read_page(ref)
        t0 = device.clock.now
        assert store.read_page(ref) == first
        assert device.clock.now - t0 > 1000  # paid the device again


class TestDeterminism:
    def _trace_one_run(self) -> str:
        _device, store, _obs = build_demo_store()
        store.pagecache = PageCache(capacity_bytes=6 * KIB,
                                    record_trace=True)
        for name in ("demo-0", "demo-1", "demo-2", "demo-0"):
            snapshot = store.snapshot_by_name(name)
            _m, _r, pages, _lineage = store.load_manifest(snapshot)
            store.read_pages_coalesced(pages)
            store.read_page(pages[0])
        return store.pagecache.trace_text()

    def test_hit_miss_eviction_trace_is_byte_identical(self):
        first = self._trace_one_run()
        second = self._trace_one_run()
        assert first == second
        assert "fill " in first and "hit " in first

    def test_fault_order_log_roundtrips(self):
        log = FaultOrderLog()
        log.record(3, 7, h(1))
        log.record(3, 9, h(2))
        text = log.to_jsonl()
        back = FaultOrderLog.from_jsonl(text)
        assert back.entries == log.entries
        assert back.to_jsonl() == text
        assert len(FaultOrderLog.from_jsonl("")) == 0


class TestInvalidation:
    def _warm(self, store, name):
        snapshot = store.snapshot_by_name(name)
        _m, _r, pages, _lineage = store.load_manifest(snapshot)
        store.read_pages_coalesced(pages)
        return snapshot, pages

    def test_snapshot_delete_drops_freed_hashes(self):
        _device, store, _obs = build_demo_store()
        snapshot, pages = self._warm(store, "demo-1")
        assert all(r.content_hash in store.pagecache for r in pages)
        store.delete_snapshot(snapshot.snap_id)
        assert all(r.content_hash not in store.pagecache for r in pages)
        assert store.pagecache.invalidations >= len(pages)

    def test_recover_clears_the_cache(self):
        _device, store, _obs = build_demo_store()
        self._warm(store, "demo-0")
        assert len(store.pagecache) > 0
        store.recover()
        assert len(store.pagecache) == 0

    def test_fsck_repair_clears_the_cache(self):
        device, store, _obs = build_demo_store()
        self._warm(store, "demo-0")
        inject(device, store, "checksum")
        report = Fsck(store, repair=True).run()
        assert report.findings  # the injected damage was found
        assert len(store.pagecache) == 0

    def test_scrub_finding_invalidates_the_cached_page(self):
        device, store, _obs = build_demo_store()
        _snapshot, pages = self._warm(store, "demo-1")
        damaged = pages[0]
        assert damaged.content_hash in store.pagecache
        inject(device, store, "checksum")  # hits demo-1's first page
        stats = Scrubber(store, batch_extents=8).run()
        assert stats.errors == 1
        assert damaged.content_hash not in store.pagecache

    def test_scrub_reads_media_not_cache(self):
        # The cached clean copy must not mask on-media damage: warm the
        # cache *before* injecting, then scrub — the finding must still
        # be raised even though a cached decode would have succeeded.
        device, store, _obs = build_demo_store()
        self._warm(store, "demo-1")
        inject(device, store, "checksum")
        stats = Scrubber(store, batch_extents=8).run()
        assert stats.errors == 1


class TestObsWiring:
    def test_counters_and_gauges_export(self):
        _device, store, obs = build_demo_store()
        snapshot = store.snapshot_by_name("demo-0")
        _m, _r, pages, _lineage = store.load_manifest(snapshot)
        store.read_pages_coalesced(pages)
        store.read_pages_coalesced(pages)
        reg = obs.registry
        name = store.device.name
        misses = reg.counter("objstore.pagecache.misses_total", store=name)
        hits = reg.counter("objstore.pagecache.hits_total", store=name)
        assert misses.value == store.pagecache.misses > 0
        assert hits.value == store.pagecache.hits > 0
        rate = reg.gauge("objstore.pagecache.hit_rate_permille", store=name)
        assert rate.value == store.pagecache.hit_rate_permille
        resident = reg.gauge("objstore.pagecache.resident_bytes", store=name)
        assert resident.value == store.pagecache.bytes_cached > 0

    def test_store_and_cow_counters_are_their_components_counts(self):
        """Every store and COW instrument reads its component's own
        count: after a traced full, incremental, restore and delete
        sequence each equals the stats field it mirrors."""
        from repro.core.backends import make_disk_backend
        from repro.core.orchestrator import SLS
        from repro.obs import names
        from repro.posix.kernel import Kernel
        from repro.posix.syscalls import Syscalls
        from repro.units import GIB

        kernel = Kernel(memory_bytes=4 * GIB)
        kernel.obs.enable()
        sls = SLS(kernel)
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(64 * KIB, name="heap")
        sys.populate(entry.start, 64 * KIB, fill_fn=lambda i: b"page-%d" % i)
        group = sls.persist(proc, name="app")
        backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
        group.attach(backend)
        sls.checkpoint(group)
        sys.poke(entry.start, b"dirty")
        incremental = sls.checkpoint(group)
        sls.barrier(group)
        sls.restore(incremental, new_instance=True, name_suffix="-r")
        backend.delete_image(incremental)

        reg, stats = kernel.obs.registry, backend.store.stats
        label = backend.store.device.name
        for name, field in [
            (names.C_STORE_PAGES_WRITTEN, "pages_written"),
            (names.C_STORE_PAGES_DEDUPED, "pages_deduped"),
            (names.C_STORE_META_RECORDS, "meta_records_written"),
            (names.C_STORE_BYTES_WRITTEN, "bytes_written"),
            (names.C_STORE_SNAPSHOTS, "snapshots_committed"),
            (names.C_STORE_SNAPSHOTS_DELETED, "snapshots_deleted"),
            (names.C_STORE_BATCHES, "batches_flushed"),
            (names.C_STORE_BATCH_RECORDS, "batch_records"),
            (names.C_STORE_PAGES_COMPRESSED, "pages_compressed"),
            (names.C_STORE_PAGES_DELTA, "pages_delta"),
            (names.C_STORE_ENCODED_BYTES_SAVED, "encoded_bytes_saved"),
        ]:
            assert reg.get(name, store=label).value == getattr(stats, field), name
        assert stats.snapshots_deleted == 1
        assert reg.get(names.G_STORE_COMPRESSION_RATIO, store=label).value == (
            stats.page_media_bytes * 1000 // stats.page_full_bytes
        )
        cow = kernel.cow.stats
        assert cow.cow_faults > 0
        for name, count in [
            (names.C_COW_PAGES_FROZEN, cow.pages_frozen),
            (names.C_COW_FAULTS, cow.cow_faults),
            (names.C_COW_PTE_UPDATES, cow.pte_updates),
        ]:
            assert reg.get(name).value == count, name

    def test_the_registry_does_not_keep_a_store_alive(self):
        import gc
        import weakref

        from repro.obs import KernelObs, names

        clock = SimClock()
        obs = KernelObs(clock)
        store = ObjectStore(NvmeDevice(clock, name="gone", queue_depth=8))
        store.attach_obs(obs)
        store.write_page(b"kept in the counts")
        store.flush_barrier()
        alive = weakref.ref(store.device)
        del store
        gc.collect()
        assert alive() is None
        written = obs.registry.get(names.C_STORE_PAGES_WRITTEN, store="gone")
        assert written.value == 1

    def test_custom_capacity_via_constructor(self):
        clock = SimClock()
        device = NvmeDevice(clock, name="tiny", queue_depth=8)
        store = ObjectStore(device, cache_bytes=0)
        assert not store.pagecache.enabled
        store = ObjectStore(
            NvmeDevice(clock, name="std", queue_depth=8)
        )
        assert store.pagecache.capacity_bytes == DEFAULT_PAGE_CACHE_BYTES


class TestDecodeHelper:
    def test_delta_chain_fills_cache_for_bases(self):
        # A delta-encoded page's decode resolves its base through the
        # single decode helper, so the base lands in the cache too.
        clock = SimClock()
        device = NvmeDevice(clock, name="delta-nvme", queue_depth=8)
        store = ObjectStore(device, mem=None)
        base_payload = b"base" * 1024
        base_ref = store.write_page(base_payload)
        dirty = bytearray(base_payload)
        dirty[100:108] = b"deltaed!"
        delta_ref = store.write_page(
            bytes(dirty), delta_base=base_ref.content_hash,
            dirty_extents=[(100, 108)],
        )
        store.flush_barrier()
        if delta_ref.content_hash == base_ref.content_hash:
            pytest.skip("codec did not delta-encode this pair")
        content = store.read_page(delta_ref)
        assert content == bytes(dirty)
        assert delta_ref.content_hash in store.pagecache
