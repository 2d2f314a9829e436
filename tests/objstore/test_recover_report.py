"""``ObjectStore.recover()`` must rebuild a store from raw device bytes.

Commit N snapshots, then open a *fresh* ``ObjectStore`` over the same
device — no shared Python state — and check the ``RecoveryReport``
and the recovered contents against what was committed.  The crash
sweep (``tests/fault/test_crashtest.py``) covers torn-write recovery;
this file pins the clean-shutdown contract.
"""

import pytest

from repro.hw.nvme import NvmeDevice
from repro.objstore.store import ObjectStore
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def nvme(clock):
    return NvmeDevice(clock)


@pytest.fixture
def store(nvme):
    return ObjectStore(nvme)


def commit(store, name, oid, value, pages=()):
    records = [store.write_meta(oid=oid, value=value)]
    refs = [store.write_page(p) for p in pages]
    return store.commit_snapshot(
        name, meta={"n": name}, records=records, pages=refs
    )


class TestRecoveryReport:
    def test_counts_match_committed_snapshots(self, store, nvme):
        for i in range(5):
            commit(store, f"snap-{i}", oid=i, value={"i": i},
                   pages=[b"pg-%d" % i])
        store.flush_barrier()
        report = ObjectStore(nvme).recover()
        assert report.snapshots_recovered == 5
        assert report.snapshots_discarded == 0
        assert report.errors == []

    def test_generation_matches_superblock(self, store, nvme):
        for i in range(3):
            commit(store, f"snap-{i}", oid=i, value={"i": i})
        store.flush_barrier()
        report = ObjectStore(nvme).recover()
        assert report.generation == store.volume.generation

    def test_recovered_contents_round_trip(self, store, nvme):
        payloads = {f"snap-{i}": b"payload-%d" % i for i in range(4)}
        for i, (name, payload) in enumerate(sorted(payloads.items())):
            commit(store, name, oid=i, value={"name": name}, pages=[payload])
        store.flush_barrier()
        reopened = ObjectStore(nvme)
        reopened.recover()
        by_name = {s.name: s for s in reopened.snapshots()}
        assert sorted(by_name) == sorted(payloads)
        for name, snap in by_name.items():
            meta, records, pages, _lineage = reopened.load_manifest(snap)
            assert meta == {"n": name}
            assert reopened.read_page(pages[0]) == payloads[name]
            assert reopened.read_meta(records[0])["name"] == name

    def test_deleted_snapshot_stays_deleted(self, store, nvme):
        keep = commit(store, "keep", oid=1, value={}, pages=[b"k"])
        drop = commit(store, "drop", oid=2, value={}, pages=[b"d"])
        store.delete_snapshot(drop.snap_id)
        store.flush_barrier()
        report = ObjectStore(nvme).recover()
        assert report.snapshots_recovered == 1
        reopened = ObjectStore(nvme)
        reopened.recover()
        assert [s.name for s in reopened.snapshots()] == ["keep"]

    def test_allocator_accounting_survives_reopen(self, store, nvme):
        for i in range(3):
            commit(store, f"snap-{i}", oid=i, value={"i": i},
                   pages=[b"page-%d" % i])
        store.flush_barrier()
        reopened = ObjectStore(nvme)
        reopened.recover()
        assert reopened.allocator.allocated_bytes == store.allocator.allocated_bytes
        reopened.allocator.check_invariants()

    def test_empty_device_recovers_empty(self, nvme):
        report = ObjectStore(nvme).recover()
        assert report.snapshots_recovered == 0
        assert report.generation == 0
