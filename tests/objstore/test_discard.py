"""Dead media bytes leave host memory.

A garbage extent is named by the newest superblock on media until the
next one orphans it, and by the older A/B slot until the superblock
after that overwrites the slot.  Once that second superblock is
durable no generation recovery can choose names the extent, so the
device forgets its bytes at the next commit point.  Never earlier: a
cut, a dropped superblock write or a flip in the newest slot may send
recovery to the older generation.  Never after reuse: GC hands the
extent back to the allocator and new records land in it.  And not much
later either: the commit point after that discards what became dead.
"""

import random

import pytest

from repro.core.backends import DiskBackend
from repro.core.orchestrator import SLS
from repro.fault import names as fault_names
from repro.fault.registry import FailpointRegistry, FaultAction
from repro.hw.nvme import NvmeDevice
from repro.objstore.block import SUPERBLOCK_SLOT_SIZE
from repro.objstore.gc import GarbageCollector
from repro.objstore.record import HEADER_SIZE
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.sim.clock import SimClock
from repro.units import GIB, MSEC, PAGE_SIZE

BLOCK = 4096


def new_store():
    return ObjectStore(NvmeDevice(SimClock(), queue_depth=8, num_queues=4),
                       cache_bytes=0)


def commit_pages(store, name, rng, count=12):
    """Commit ``count`` incompressible pages and one metadata record."""
    payloads = [rng.randbytes(PAGE_SIZE) for _ in range(count)]
    refs = [store.write_page(p) for p in payloads]
    meta = store.write_meta(oid=1, value={"name": name})
    snap = store.commit_snapshot(name, meta={"name": name}, records=[meta],
                                 pages=refs)
    return snap, dict(zip(refs, payloads))


def spill_directory(store, rng):
    """Commit one-page snapshots until the directory leaves the slot."""
    count = 0
    while store._dir_spill is None:
        commit_pages(store, f"spill-{count:04d}", rng, count=1)
        count += 1


def held_dead_blocks(device, extents):
    """Blocks the device holds that lie wholly inside ``extents``
    (disjoint, as garbage is)."""
    def dead(block_no):
        lo, hi = block_no * BLOCK, (block_no + 1) * BLOCK
        return sum(max(0, min(hi, e.end) - max(lo, e.offset))
                   for e in extents) == BLOCK
    return [block_no for block_no in device._blocks if dead(block_no)]


def flip_slot(store, generation):
    """Corrupt the first payload byte of ``generation``'s superblock slot."""
    offset = (generation % 2) * SUPERBLOCK_SLOT_SIZE + HEADER_SIZE
    block_no, within = divmod(offset, BLOCK)
    store.device._blocks[block_no][within] ^= 0x01


def reboot(device):
    rebooted = ObjectStore(device, cache_bytes=0)
    return rebooted, rebooted.recover()


class TestNeverEarly:
    def test_crash_before_the_orphaning_superblock_keeps_the_snapshot(self):
        store, rng = new_store(), random.Random(1)
        old, pages = commit_pages(store, "old", rng)
        commit_pages(store, "keep", rng)
        store.flush_barrier()
        store.delete_snapshot(old.snap_id)
        # a commit point while the delete's superblock is in flight
        commit_pages(store, "next", rng)
        assert store.device.pending_writes()
        store.device.crash()

        rebooted, report = reboot(store.device)
        assert report.snapshots_discarded == 0
        assert [s.name for s in rebooted.snapshots()] == ["old", "keep"]
        for ref, payload in pages.items():
            assert rebooted.read_page(ref) == payload

    @pytest.mark.parametrize("spilled", [False, True], ids=["inline", "spilled"])
    def test_a_flip_in_the_newest_slot_loses_nothing(self, spilled):
        # The delete's superblock is durable, the next one in flight: the
        # older slot still names the deleted snapshot (and, spilled, the
        # directory record it points at).  A flip in the newest slot
        # sends recovery there, and every byte it names is still held.
        store, rng = new_store(), random.Random(6)
        if spilled:
            spill_directory(store, rng)
        old, old_pages = commit_pages(store, "old", rng)
        _keep, pages = commit_pages(store, "keep", rng)
        store.flush_barrier()
        names = [s.name for s in store.snapshots()]
        store.delete_snapshot(old.snap_id)
        newest = store.volume.generation
        store.flush_barrier()
        commit_pages(store, "next", rng)
        assert store.device.pending_writes()
        store.device.crash()
        flip_slot(store, newest)

        rebooted, report = reboot(store.device)
        assert report.snapshots_discarded == 0
        assert [s.name for s in rebooted.snapshots()] == names
        for ref, payload in {**old_pages, **pages}.items():
            assert rebooted.read_page(ref) == payload

    def test_a_dropped_superblock_write_loses_nothing(self):
        # FAULTS.md: the device lies about the delete's superblock, so
        # its slot keeps an older generation; the other slot holds the
        # generation before the delete, which names the deleted
        # snapshot.  A cut before the next superblock lands recovers
        # that generation, and every record it names is still held.
        store, rng = new_store(), random.Random(5)
        faults = FailpointRegistry(clock=store.device.clock)
        store.attach_faults(faults)
        old, old_pages = commit_pages(store, "old", rng)
        _keep, pages = commit_pages(store, "keep", rng)
        store.flush_barrier()
        faults.arm(fault_names.FP_DEVICE_WRITE, FaultAction("drop"))
        store.delete_snapshot(old.snap_id)  # its one write: the superblock
        assert faults.fired_total(fault_names.FP_DEVICE_WRITE) == 1
        store.device.clock.advance(MSEC)
        commit_pages(store, "next", rng)
        assert store.device.pending_writes()
        store.device.crash()

        rebooted, report = reboot(store.device)
        assert report.snapshots_discarded == 0
        assert [s.name for s in rebooted.snapshots()] == ["old", "keep"]
        for ref, payload in {**old_pages, **pages}.items():
            assert rebooted.read_page(ref) == payload


class TestNeverAfterReuse:
    def test_pages_written_into_collected_extents_read_back(self):
        store, rng = new_store(), random.Random(2)
        old, old_pages = commit_pages(store, "old", rng)
        store.flush_barrier()
        store.delete_snapshot(old.snap_id)
        store.flush_barrier()
        assert GarbageCollector(store).collect().extents_freed
        new, pages = commit_pages(store, "new", rng)
        dead = {ref.extent.offset for ref in old_pages}
        assert dead & {ref.extent.offset for ref in pages}  # reused
        for name in ("later-1", "later-2"):
            store.flush_barrier()
            commit_pages(store, name, rng, count=2)
        store.flush_barrier()
        for ref, payload in pages.items():
            assert store.read_page(ref) == payload


class TestDeadBytesLeave:
    def test_no_block_lies_inside_garbage_no_durable_slot_names(self):
        store, rng = new_store(), random.Random(3)
        snaps = [commit_pages(store, f"s{i}", rng)[0] for i in range(6)]
        for snap in snaps[:3]:
            store.delete_snapshot(snap.snap_id)
        earlier = list(store.garbage)
        store.delete_snapshot(snaps[3].snap_id)
        last = store.garbage[len(earlier):]
        store.flush_barrier()
        assert held_dead_blocks(store.device, earlier)
        # the superblock after each earlier delete is durable; the
        # older slot still names what the last delete orphaned
        commit_pages(store, "one-more", rng, count=1)
        assert held_dead_blocks(store.device, earlier) == []
        assert held_dead_blocks(store.device, last)
        store.flush_barrier()
        commit_pages(store, "two-more", rng, count=1)
        assert held_dead_blocks(store.device, last) == []
        # the live snapshots still read back
        for snap in store.snapshots():
            for ref in store.load_manifest(snap).pages:
                store.read_page(ref)

    def test_a_superseded_directory_spill_leaves(self):
        store, rng = new_store(), random.Random(4)
        spill_directory(store, rng)
        spill = store._dir_spill
        store.flush_barrier()
        commit_pages(store, "supersedes", rng, count=1)
        assert spill in store.garbage
        store.flush_barrier()
        commit_pages(store, "replaces-the-older-slot", rng, count=1)
        assert held_dead_blocks(store.device, [spill])
        store.flush_barrier()
        commit_pages(store, "discards", rng, count=1)
        assert held_dead_blocks(store.device, [spill]) == []
        assert store.device.read(spill.offset, spill.length) == bytes(spill.length)


def media_blocks_after(incrementals: int) -> int:
    """Blocks the device holds after ``incrementals`` 10 ms-spaced
    checkpoints of a 256-page heap, 8 pages rewritten in each, under the
    group's default retention."""
    kernel = Kernel(hostname="media", memory_bytes=1 * GIB)
    store = ObjectStore(NvmeDevice(kernel.clock, queue_depth=8, num_queues=4),
                        mem=kernel.mem)
    backend = DiskBackend("disk0", store)
    rng = random.Random(5)
    sysc = Syscalls(kernel, kernel.spawn("app"))
    heap = sysc.mmap(256 * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, 256 * PAGE_SIZE,
                  fill_fn=lambda i: rng.randbytes(PAGE_SIZE))
    sls = SLS(kernel)
    group = sls.persist(sysc.proc, name="app")
    group.attach(backend)
    sls.checkpoint(group)
    for _ in range(incrementals):
        for page in rng.sample(range(256), 8):
            sysc.poke(heap.start + page * PAGE_SIZE, rng.randbytes(PAGE_SIZE))
        kernel.run_for(10 * MSEC)
        sls.checkpoint(group)
    sls.barrier(group)
    return len(store.device._blocks)


class TestHostMediaBytesFollowTheLiveSet:
    def test_held_blocks_stay_flat_as_history_grows(self):
        # The retention window bounds the live set; bytes written grow
        # 2.8x from 40 to 160 incrementals, and so would the blocks
        # held if every dead byte stayed.
        assert media_blocks_after(160) < 2 * media_blocks_after(40)
