"""Dedup release/refcount paths interacting with in-place reclaim."""

from dataclasses import replace

import pytest

from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P
from repro.objstore.alloc import Extent
from repro.objstore.dedup import DedupIndex
from repro.objstore.snapshot import PageRef
from repro.objstore.store import ObjectStore
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def store(clock):
    return ObjectStore(NvmeDevice(clock))


HASH_A = b"\xaa" * 32
HASH_B = b"\xbb" * 32


def _ref(content_hash, extent):
    return PageRef(content_hash, extent, extent.length)


class TestDedupIndex:
    def test_release_of_last_ref_returns_extent(self):
        index = DedupIndex()
        extent = Extent(4096, 4096)
        index.insert(_ref(HASH_A, extent))
        index.hold(HASH_A)
        index.hold(HASH_A)
        assert index.release(HASH_A) is None
        assert index.refcount(HASH_A) == 1
        assert index.release(HASH_A) == extent
        assert index.refcount(HASH_A) == 0
        assert HASH_A not in index.entries()

    def test_release_underflow_is_an_error(self):
        index = DedupIndex()
        index.insert(_ref(HASH_A, Extent(0, 4096)))
        with pytest.raises(AssertionError):
            index.release(HASH_A)

    def test_release_unknown_hash_raises(self):
        index = DedupIndex()
        with pytest.raises(KeyError):
            index.release(HASH_B)

    def test_reinsert_after_full_release(self):
        index = DedupIndex()
        index.insert(_ref(HASH_A, Extent(0, 4096)))
        index.hold(HASH_A)
        index.release(HASH_A)
        # The hash fully drained; the same content may be stored anew.
        index.insert(_ref(HASH_A, Extent(8192, 4096)))
        assert index.refcount(HASH_A) == 0

    def test_double_insert_rejected(self):
        index = DedupIndex()
        index.insert(_ref(HASH_A, Extent(0, 4096)))
        with pytest.raises(AssertionError):
            index.insert(_ref(HASH_A, Extent(4096, 4096)))

    def test_bytes_deduped_counts_shared_holds_only(self):
        index = DedupIndex()
        index.insert(_ref(HASH_A, Extent(0, 4096)))
        index.hold(HASH_A, nbytes=4096)  # first hold: not a dedup win
        index.hold(HASH_A, nbytes=4096)
        index.hold(HASH_A, nbytes=4096)
        assert index.stats.bytes_deduped == 2 * 4096


class TestOneRefPerStoredPage:
    def test_identical_content_returns_the_same_ref(self, store):
        first = store.write_page(b"runtime page")
        assert store.write_page(b"runtime page") is first
        assert store.dedup.get(first.content_hash).ref is first

    def test_a_hit_after_recover_returns_the_ref_the_rebuild_indexed(self, store):
        ref = store.write_page(b"survivor")
        store.commit_snapshot("only", meta=None, records=[], pages=[ref])
        store.flush_barrier()
        store.device.crash()
        rebooted = ObjectStore(store.device)
        rebooted.recover()
        indexed = rebooted.dedup.get(ref.content_hash).ref
        assert indexed == ref and indexed is not ref
        assert rebooted.write_page(b"survivor") is indexed


def outlive_both_slots(store):
    """Two durable superblocks after a delete: the first orphans its
    extents, the second replaces the older slot; the commit point after
    that reclaims them."""
    for name in ("orphans", "replaces-older-slot", "reclaims"):
        store.flush_barrier()
        store.commit_snapshot(name, meta=None, records=[], pages=[])


class TestReleaseFeedsGc:
    def test_last_snapshot_delete_queues_extent_for_gc(self, store):
        ref = store.write_page(b"reclaim me")
        snap = store.commit_snapshot("only", meta=None, records=[], pages=[ref])
        assert not store.garbage
        store.delete_snapshot(snap.snap_id)
        assert ref.extent in store.garbage
        outlive_both_slots(store)
        assert ref.extent not in store.garbage
        assert any(run.offset <= ref.extent.offset and ref.extent.end <= run.end
                   for run in store.allocator.free_extents())

    def test_shared_page_survives_partial_delete(self, store):
        ref = store.write_page(b"shared page")
        snap_a = store.commit_snapshot("a", meta=None, records=[], pages=[ref])
        store.commit_snapshot("b", meta=None, records=[], pages=[ref])
        store.delete_snapshot(snap_a.snap_id)
        outlive_both_slots(store)
        assert store.dedup.refcount(ref.content_hash) == 1
        assert store.read_page(ref) == b"shared page"

    def test_reclaimed_extent_is_reallocated(self, clock):
        # a device small enough that next-fit wraps onto reclaimed space
        store = ObjectStore(NvmeDevice(clock, spec=replace(OPTANE_900P, capacity=1 << 20)))
        ref = store.write_page(b"recycle")
        snap = store.commit_snapshot("gone", meta=None, records=[], pages=[ref])
        filler = store.write_meta(oid=1, value=bytes(store.allocator.free_bytes - 4096))
        store.commit_snapshot("filler", meta=None, records=[filler], pages=[])
        store.delete_snapshot(snap.snap_id)
        outlive_both_slots(store)
        tenants = []
        while not any(t.extent.offset <= ref.extent.offset < t.extent.end for t in tenants):
            tenants.append(store.write_page(b"tenant %d" % len(tenants)))
        assert store.read_page(tenants[-1]) == b"tenant %d" % (len(tenants) - 1)

    def test_batched_writes_release_like_unbatched(self, store):
        refs = [store.write_page(b"via-batch-%d" % i) for i in range(3)]
        snap = store.commit_snapshot(
            "batched", meta=None, records=[], pages=refs
        )
        store.delete_snapshot(snap.snap_id)
        for ref in refs:
            assert store.dedup.refcount(ref.content_hash) == 0
        assert all(ref.extent in store.garbage for ref in refs)
        outlive_both_slots(store)
        assert not any(ref.extent in store.garbage for ref in refs)
