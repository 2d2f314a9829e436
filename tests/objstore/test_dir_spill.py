"""Superblock directory spillover: fleets outgrow the 8 KiB slot.

A thousand deployed functions means a thousand snapshots in one
store's directory; the encoded directory long ago stopped fitting the
fixed superblock slot.  When it overflows, the directory is written as
a META record in the data area and the superblock holds only a tiny
stub pointing at it — byte-identical to the inline format while the
directory still fits, so small stores and the crash sweep see no
change.
"""

import pytest

from repro.hw.nvme import NvmeDevice
from repro.objstore.block import SUPERBLOCK_SLOT_SIZE
from repro.objstore.fsck import Fsck
from repro.objstore.record import HEADER_SIZE, decode
from repro.objstore.store import DIR_SPILL_KEY, ObjectStore
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


def commit(store, name):
    ref = store.write_meta(oid=0, value={"n": name})
    page = store.write_page(b"pg-%s" % name.encode())
    return store.commit_snapshot(
        name, meta={"n": name}, records=[ref], pages=[page]
    )


def commit_until_spilled(store, limit=400):
    """Commit snapshots until the directory leaves the superblock."""
    count = 0
    while store._dir_spill is None:
        assert count < limit, "directory never spilled"
        commit(store, f"snap-{count:04d}")
        count += 1
    return count


class TestSpillFormat:
    def test_small_directory_stays_inline(self, store, nvme):
        for i in range(3):
            commit(store, f"snap-{i}")
        assert store._dir_spill is None
        _gen, payload = store.volume.read_superblocks()[0]
        # Inline format: the directory itself (a LIST), not a stub.
        assert isinstance(decode(payload), list)

    def test_overflow_moves_directory_to_data_area(self, store):
        commit_until_spilled(store)
        _gen, payload = store.volume.read_superblocks()[0]
        stub = decode(payload)
        assert isinstance(stub, dict)
        offset, length = stub[DIR_SPILL_KEY]
        assert (offset, length) == (
            store._dir_spill.offset, store._dir_spill.length
        )
        assert HEADER_SIZE + length > SUPERBLOCK_SLOT_SIZE

    def test_old_spill_extent_becomes_garbage(self, store):
        commit_until_spilled(store)
        first_spill = store._dir_spill
        commit(store, "one-more")
        assert store._dir_spill.offset != first_spill.offset
        assert first_spill in store.garbage


class TestSpillRecovery:
    def test_recover_spilled_directory(self, store, nvme):
        count = commit_until_spilled(store)
        commit(store, "tail")
        reopened = ObjectStore(nvme)
        reopened.recover()
        assert len(reopened.directory.snapshots) == count + 1
        assert reopened.snapshot_by_name("tail") is not None
        assert reopened._dir_spill is not None

    def test_recovered_allocator_reserves_spill_extent(self, store, nvme):
        commit_until_spilled(store)
        reopened = ObjectStore(nvme)
        reopened.recover()
        spill = reopened._dir_spill
        # New writes must not land on the live directory record.
        ref = reopened.write_page(b"fresh-after-recover")
        assert not (
            ref.extent.offset < spill.offset + spill.length
            and spill.offset < ref.extent.offset + ref.extent.length
        )

    def test_delete_can_shrink_back_inline(self, store, nvme):
        count = commit_until_spilled(store)
        snap_ids = sorted(store.directory.snapshots)
        for snap_id in snap_ids[: count - 3]:
            store.delete_snapshot(snap_id)
        assert store._dir_spill is None
        reopened = ObjectStore(nvme)
        reopened.recover()
        assert len(reopened.directory.snapshots) == len(
            store.directory.snapshots
        )


class TestSpillFsck:
    def test_fsck_clean_on_spilled_store(self, store, nvme):
        commit_until_spilled(store)
        report = Fsck(ObjectStore(nvme)).run()
        assert report.clean, [f.to_dict() for f in report.findings]

    def test_fsck_repair_rewrites_spilled_directory(self, store, nvme):
        commit_until_spilled(store)
        # Orphan a snapshot by hand to force a repairable finding.
        victim_id = max(store.directory.snapshots)
        store.directory.snapshots.pop(victim_id)
        store._write_directory()
        store.flush_barrier()
        checker = Fsck(ObjectStore(nvme), repair=True)
        report = checker.run()
        second = Fsck(ObjectStore(nvme)).run()
        assert second.clean, [f.to_dict() for f in second.findings]
