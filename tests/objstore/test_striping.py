"""Striped extent allocation and the sharded-flush round trip.

The acceptance bar for the multi-queue store: every PageRef written
through any shard must be readable and checksum-clean after recovery,
no matter which submission queue carried its bytes.
"""

import pytest

from repro.hw.nvme import NvmeDevice
from repro.objstore.alloc import Extent, ExtentAllocator
from repro.objstore.store import ObjectStore
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def mq_store(clock):
    return ObjectStore(NvmeDevice(clock, queue_depth=8, num_queues=4))


class TestStripedAllocator:
    def test_shard_preference_places_in_stripe(self):
        alloc = ExtentAllocator(base=0, size=4096, num_shards=4)
        for shard in range(4):
            extent = alloc.allocate(64, shard=shard)
            assert alloc.shard_of(extent.offset) == shard

    def test_shard_of_partitions_the_range(self):
        alloc = ExtentAllocator(base=1000, size=4000, num_shards=4)
        assert alloc.shard_of(1000) == 0
        assert alloc.shard_of(1999) == 0
        assert alloc.shard_of(2000) == 1
        assert alloc.shard_of(4999) == 3
        with pytest.raises(ValueError):
            alloc.shard_of(5000)

    def test_exhausted_stripe_falls_back_globally(self):
        alloc = ExtentAllocator(base=0, size=400, num_shards=4)
        alloc.allocate(100, shard=0)
        # Stripe 0 is full; the allocation still succeeds elsewhere.
        extent = alloc.allocate(50, shard=0)
        assert alloc.shard_of(extent.offset) != 0

    def test_bad_shard_rejected(self):
        alloc = ExtentAllocator(base=0, size=400, num_shards=4)
        with pytest.raises(ValueError):
            alloc.allocate(10, shard=4)

    def test_free_and_invariants_across_stripes(self):
        alloc = ExtentAllocator(base=0, size=4096, num_shards=4)
        extents = [alloc.allocate(64, shard=s) for s in range(4)]
        for extent in extents:
            alloc.free(extent)
        alloc.check_invariants()
        assert alloc.free_bytes == 4096

    def test_single_shard_is_plain_first_fit(self):
        alloc = ExtentAllocator(base=0, size=4096, num_shards=1)
        a = alloc.allocate(64, shard=0)
        b = alloc.allocate(64, shard=0)
        assert (a.offset, b.offset) == (0, 64)

    def test_reserve_survives_striping(self):
        alloc = ExtentAllocator(base=0, size=4096, num_shards=4)
        alloc.reserve(Extent(offset=2048, length=64))
        taken = alloc.allocate(64, shard=2)
        assert taken.offset != 2048


class TestShardedRoundTrip:
    def checkpoint(self, store, n_pages, tag):
        pages = [
            store.write_page(b"%s-page-%04d" % (tag, i)) for i in range(n_pages)
        ]
        meta = store.write_meta(oid=1, value={"tag": tag.decode()})
        snapshot = store.commit_snapshot(
            tag.decode(), {"gen": tag.decode()}, [meta], pages
        )
        return snapshot, pages

    def test_batch_spreads_pages_over_all_shards(self, mq_store):
        _snap, pages = self.checkpoint(mq_store, 32, b"spread")
        shards = {
            mq_store.allocator.shard_of(p.extent.offset) for p in pages
        }
        assert shards == {0, 1, 2, 3}

    def test_every_page_readable_after_recovery(self, mq_store):
        _snap, pages = self.checkpoint(mq_store, 48, b"rt")
        mq_store.flush_barrier()
        mq_store.device.crash()
        report = mq_store.recover()
        assert report.snapshots_recovered == 1
        assert not report.errors
        for i, ref in enumerate(pages):
            payload = mq_store.read_page(ref)
            assert payload == b"rt-page-%04d" % i
            assert ObjectStore.page_hash(payload) == ref.content_hash

    def test_recovered_manifest_covers_all_shards(self, mq_store):
        snap, _pages = self.checkpoint(mq_store, 32, b"mf")
        mq_store.flush_barrier()
        mq_store.device.crash()
        mq_store.recover()
        recovered = mq_store.snapshot_by_name("mf")
        assert recovered is not None
        _meta, _records, pages, _lineage = mq_store.load_manifest(recovered)
        shards = {
            mq_store.allocator.shard_of(p.extent.offset) for p in pages
        }
        assert shards == {0, 1, 2, 3}
        for ref in pages:
            assert (
                ObjectStore.page_hash(mq_store.read_page(ref))
                == ref.content_hash
            )

    def test_torn_sharded_checkpoint_discarded_as_a_unit(self, mq_store):
        # First checkpoint becomes durable; the second's sharded flush
        # is cut mid-air — recovery must keep exactly the first.
        self.checkpoint(mq_store, 16, b"keep")
        mq_store.flush_barrier()
        for i in range(16):
            mq_store.write_page(b"torn-%04d" % i)
        mq_store.batch.flush()
        mq_store.device.crash()  # records in flight on several queues
        report = mq_store.recover()
        assert report.snapshots_recovered == 1
        assert mq_store.snapshot_by_name("keep") is not None

    def test_multiple_checkpoints_share_striped_pages(self, mq_store):
        _s1, pages1 = self.checkpoint(mq_store, 24, b"a")
        # Re-add the same content: all 24 dedup against checkpoint 1.
        reused = [mq_store.write_page(b"a-page-%04d" % i) for i in range(24)]
        fresh = [mq_store.write_page(b"b-page-%04d" % i) for i in range(8)]
        meta = mq_store.write_meta(oid=1, value={"tag": "b"})
        mq_store.commit_snapshot("b", {}, [meta], reused + fresh)
        assert mq_store.stats.pages_deduped == 24
        assert [r.extent for r in reused] == [p.extent for p in pages1]
        mq_store.flush_barrier()
        mq_store.device.crash()
        report = mq_store.recover()
        assert report.snapshots_recovered == 2
        for i, ref in enumerate(fresh):
            assert mq_store.read_page(ref) == b"b-page-%04d" % i
