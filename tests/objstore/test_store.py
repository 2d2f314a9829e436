"""Unit tests for the object store: snapshots, dedup, recovery, GC."""

import random
from dataclasses import replace

import pytest

from repro.errors import NoSuchObject
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P
from repro.objstore.block import DATA_BASE
from repro.objstore.store import ObjectStore
from repro.sim.clock import SimClock
from repro.units import PAGE_SIZE


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def nvme(clock):
    return NvmeDevice(clock)


@pytest.fixture
def store(nvme):
    return ObjectStore(nvme)


def commit(store, name, values=(), pages=(), parent=None):
    records = [store.write_meta(oid=i, value=v) for i, v in enumerate(values)]
    refs = [store.write_page(p) for p in pages]
    return store.commit_snapshot(
        name, meta={"n": name}, records=records, pages=refs,
        parent_id=parent.snap_id if parent else None,
    )


class TestRecords:
    def test_meta_roundtrip(self, store):
        ref = store.write_meta(oid=9, value={"pid": 7, "name": "redis"})
        assert store.read_meta(ref) == {"pid": 7, "name": "redis"}

    def test_page_roundtrip(self, store):
        ref = store.write_page(b"page content")
        assert store.read_page(ref) == b"page content"

    def test_page_dedup(self, store):
        a = store.write_page(b"identical")
        b = store.write_page(b"identical")
        assert a.extent.offset == b.extent.offset
        assert store.stats.pages_written == 1
        assert store.stats.pages_deduped == 1

    def test_dedup_normalizes_zero_padding(self, store):
        a = store.write_page(b"data")
        b = store.write_page(b"data" + b"\x00" * 64)
        assert a.content_hash == b.content_hash

    def test_coalesced_bulk_read(self, store, nvme):
        refs = [store.write_page(b"pg-%d" % i) for i in range(50)]
        reads_before = nvme.stats.reads
        payloads = store.read_pages_coalesced(refs)
        assert len(payloads) == 50
        assert payloads[refs[7].content_hash] == b"pg-7"
        # Far fewer device ops than pages (sequential layout).
        assert nvme.stats.reads - reads_before <= 3

    def test_logical_page_size_charged(self, store, nvme):
        store.write_page(b"tiny")
        store.batch.flush()
        assert nvme.stats.bytes_written >= PAGE_SIZE


class TestSnapshots:
    def test_commit_and_load(self, store):
        snap = commit(store, "ckpt", values=[{"a": 1}], pages=[b"pg"])
        meta, records, pages, _lineage = store.load_manifest(snap)
        assert meta == {"n": "ckpt"}
        assert store.read_meta(records[0]) == {"a": 1}
        assert store.read_page(pages[0]) == b"pg"

    def test_manifest_shape_gauges_track_the_last_commit(self, store, clock):
        from repro.obs import KernelObs, render_store_encoding
        from repro.obs import names as obs_names
        from repro.objstore.record import HEADER_SIZE

        obs = KernelObs(clock, label="shape")
        store.attach_obs(obs)

        def shape():
            return tuple(
                obs.registry.gauge(name, store=store.device.name).value
                for name in (obs_names.G_STORE_MANIFEST_BYTES,
                             obs_names.G_STORE_MANIFEST_PAGE_ROWS,
                             obs_names.G_STORE_MANIFEST_LINEAGE)
            )

        assert shape() == (0, 0, 0)
        small = commit(store, "small", values=[{"a": 1}], pages=[b"pg"])
        assert shape() == (small.manifest_extent.length - HEADER_SIZE, 1, 0)
        big = commit(store, "big", values=[{"a": 1}, {"b": 2}],
                     pages=[b"pg-%d" % i for i in range(9)])
        assert shape() == (big.manifest_extent.length - HEADER_SIZE, 9, 0)
        header, row = render_store_encoding(obs.registry).splitlines()
        assert header.split()[-5:] == ["manifest", "B", "page", "rows", "lineage"]
        assert row.split()[-3:] == [str(shape()[0]), "9", "0"]
        # an incremental counts the rows it added and the tables it reads
        chained = store.commit_snapshot(
            "chained", meta=None, records=[], pages=[store.write_page(b"new")],
            lineage=[big.manifest_extent, small.manifest_extent],
        )
        assert shape() == (chained.manifest_extent.length - HEADER_SIZE, 1, 2)

    def test_snapshot_directory(self, store):
        commit(store, "one")
        commit(store, "two")
        assert [s.name for s in store.snapshots()] == ["one", "two"]
        assert store.snapshot_by_name("two") is not None

    def test_shared_pages_refcounted(self, store):
        ref = store.write_page(b"shared")
        store.commit_snapshot("a", meta=None, records=[], pages=[ref])
        store.commit_snapshot("b", meta=None, records=[], pages=[ref])
        assert store.dedup.refcount(ref.content_hash) == 2

    def test_delete_releases_refs(self, store):
        ref = store.write_page(b"shared")
        snap_a = store.commit_snapshot("a", meta=None, records=[], pages=[ref])
        store.commit_snapshot("b", meta=None, records=[], pages=[ref])
        store.delete_snapshot(snap_a.snap_id)
        assert store.dedup.refcount(ref.content_hash) == 1
        assert store.snapshot_by_name("a") is None

    def test_delete_last_ref_frees_extent(self, store):
        ref = store.write_page(b"doomed")
        snap = store.commit_snapshot("a", meta=None, records=[], pages=[ref])
        store.delete_snapshot(snap.snap_id)
        assert store.dedup.refcount(ref.content_hash) == 0
        assert len(store.garbage) > 0

    def test_delete_unknown_snapshot(self, store):
        with pytest.raises(NoSuchObject):
            store.delete_snapshot(999)

    def test_delta_bytes_tracked(self, store):
        big = commit(store, "big", pages=[b"p%d" % i for i in range(10)])
        small = commit(store, "small", pages=[b"p0"])  # all dedup hits
        assert big.delta_bytes > small.delta_bytes


def outlive_both_slots(store):
    """Barrier and commit until the superblock after a delete's has
    replaced the older slot, and one more commit point reclaims."""
    for name in ("orphans", "replaces-older-slot", "reclaims"):
        store.flush_barrier()
        commit(store, name)


class TestGc:
    def test_collect_returns_space(self, store):
        snap = commit(store, "a", values=[{"x": 1}], pages=[b"data"])
        store.delete_snapshot(snap.snap_id)
        dead = list(store.garbage)
        assert len(dead) >= 3  # meta + page + manifest
        outlive_both_slots(store)
        assert not store.garbage
        free = store.allocator.free_extents()
        assert all(any(run.offset <= e.offset and e.end <= run.end for run in free)
                   for e in dead)

    def test_gc_does_not_touch_live_data(self, store):
        keep = commit(store, "keep", values=[{"v": 1}], pages=[b"live"])
        doomed = commit(store, "doomed", pages=[b"dead"])
        store.delete_snapshot(doomed.snap_id)
        outlive_both_slots(store)
        meta, records, pages, _lineage = store.load_manifest(keep)
        assert store.read_meta(records[0]) == {"v": 1}
        assert store.read_page(pages[0]) == b"live"

    def test_freed_space_reusable(self):
        # A data area of four incompressible pages: "b" fits only in
        # the extents "a" held.
        store = ObjectStore(NvmeDevice(SimClock(), spec=replace(
            OPTANE_900P, capacity=DATA_BASE + 4 * PAGE_SIZE)))
        rng = random.Random(0)
        a = commit(store, "a", pages=[rng.randbytes(PAGE_SIZE) for _ in range(3)])
        held = [ref.extent for ref in store.load_manifest(a).pages]
        store.delete_snapshot(a.snap_id)
        outlive_both_slots(store)
        store.allocator.check_invariants()
        payloads = [rng.randbytes(PAGE_SIZE) for _ in range(3)]
        b = commit(store, "b", pages=payloads)  # no StoreFullError
        refs = store.load_manifest(b).pages
        assert any(e.offset < h.end and h.offset < e.end
                   for e in (ref.extent for ref in refs) for h in held)
        assert sorted(store.read_page(ref) for ref in refs) == sorted(payloads)


class TestRecovery:
    def test_recover_durable_snapshots(self, store, nvme):
        commit(store, "alpha", values=[{"k": "v"}], pages=[b"page"])
        store.flush_barrier()
        nvme.crash()
        fresh = ObjectStore(nvme)
        report = fresh.recover()
        assert report.snapshots_recovered == 1
        snap = fresh.snapshot_by_name("alpha")
        meta, records, pages, _lineage = fresh.load_manifest(snap)
        assert fresh.read_meta(records[0]) == {"k": "v"}

    def test_torn_checkpoint_discarded_as_unit(self, store, nvme):
        commit(store, "durable")
        store.flush_barrier()
        commit(store, "torn", values=[{"x": 1}], pages=[b"data"])
        nvme.crash()  # tears the un-flushed snapshot
        fresh = ObjectStore(nvme)
        report = fresh.recover()
        assert report.snapshots_recovered == 1
        assert fresh.snapshot_by_name("torn") is None
        assert fresh.snapshot_by_name("durable") is not None

    def test_recovery_rebuilds_dedup_and_allocator(self, store, nvme):
        snap = commit(store, "a", pages=[b"shared", b"unique"])
        commit(store, "b", pages=[b"shared"])
        store.flush_barrier()
        fresh = ObjectStore(nvme)
        fresh.recover()
        _, _, pages, _lineage = fresh.load_manifest(fresh.snapshot_by_name("a"))
        shared_hash = ObjectStore.page_hash(b"shared")
        assert fresh.dedup.refcount(shared_hash) == 2
        # New writes do not collide with recovered extents.
        new_ref = fresh.write_page(b"post-recovery")
        assert fresh.read_page(new_ref) == b"post-recovery"
        for ref in pages:
            assert fresh.read_page(ref) in (b"shared", b"unique")

    def test_empty_device_recovers_empty(self, nvme):
        fresh = ObjectStore(nvme)
        report = fresh.recover()
        assert report.snapshots_recovered == 0
        assert fresh.snapshots() == []

    def test_recovered_ids_do_not_collide(self, store, nvme):
        commit(store, "a")
        commit(store, "b")
        store.flush_barrier()
        fresh = ObjectStore(nvme)
        fresh.recover()
        new = commit(fresh, "c")
        ids = [s.snap_id for s in fresh.snapshots()]
        assert len(ids) == len(set(ids))
        assert new.snap_id == max(ids)

    def test_superblock_ab_slots_alternate(self, store, nvme):
        commit(store, "one")
        gen1 = store.volume.generation
        commit(store, "two")
        assert store.volume.generation == gen1 + 1
        store.flush_barrier()
        fresh = ObjectStore(nvme)
        report = fresh.recover()
        assert report.generation == gen1 + 1
        assert len(fresh.snapshots()) == 2

    def test_physical_bytes_accounting(self, store):
        assert store.physical_bytes() == 0
        commit(store, "a", values=[{"x": 1}], pages=[b"data"])
        assert store.physical_bytes() > 0
