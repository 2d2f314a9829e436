"""One reclaim rule: a dead extent is freed once no superblock slot
names it.

A garbage extent is named by the newest superblock on media until the
next one orphans it, and by the older A/B slot until the superblock
after that overwrites the slot.  Once that second superblock is
durable no generation recovery can choose names the extent, so the
next commit point frees it: the device forgets its bytes and the
allocator may hand it out again.  Never earlier: a cut, a dropped
superblock write or a flip in the newest slot may send recovery to the
older generation, and a reboot keeps what either slot still names.
And not much later either, so media space and the device's host
memory follow the live set, not the history.
"""

import functools
import random
from dataclasses import replace

import pytest

from repro.core.backends import DiskBackend
from repro.core.orchestrator import SLS
from repro.fault import names as fault_names
from repro.fault.registry import FailpointRegistry, FaultAction
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P
from repro.objstore.block import SUPERBLOCK_SLOT_SIZE
from repro.objstore.log import PersistentLog
from repro.objstore.record import HEADER_SIZE
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.sim.clock import SimClock
from repro.units import GIB, MSEC, PAGE_SIZE

BLOCK = 4096


def new_store(capacity=None, queues=4):
    spec = OPTANE_900P if capacity is None else replace(OPTANE_900P, capacity=capacity)
    return ObjectStore(NvmeDevice(SimClock(), spec=spec, queue_depth=8, num_queues=queues),
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


def overlaps(extents, others):
    return any(a.offset < b.end and b.offset < a.end for a in extents for b in others)


class TestNeverAfterReuse:
    def test_pages_written_into_collected_extents_read_back(self):
        # A 1 MiB device: the stripes' cursors wrap onto reclaimed space.
        store, rng = new_store(capacity=1 << 20), random.Random(2)
        old, old_pages = commit_pages(store, "old", rng)
        store.delete_snapshot(old.snap_id)
        live = []
        for step in range(40):
            store.flush_barrier()
            snap, pages = commit_pages(store, f"s{step}", rng)
            live.append((snap, pages))
            if len(live) > 2:
                store.delete_snapshot(live.pop(0)[0].snap_id)
            if overlaps([ref.extent for ref in pages], [ref.extent for ref in old_pages]):
                break
        else:
            pytest.fail("no commit reused the deleted snapshot's extents")
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
        last = [extent for extent in store.garbage if extent not in earlier]
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


@functools.lru_cache(maxsize=None)
def media_after(incrementals: int) -> tuple[int, int]:
    """Blocks the device holds and bytes the store has allocated after
    ``incrementals`` 10 ms-spaced checkpoints of a 256-page heap, 8
    pages rewritten in each, under the group's default retention."""
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
    return len(store.device._blocks), store.allocator.allocated_bytes


class TestHostMediaBytesFollowTheLiveSet:
    def test_held_blocks_stay_flat_as_history_grows(self):
        # The retention window bounds the live set; bytes written grow
        # 2.8x from 40 to 160 incrementals, and so would the blocks
        # held if every dead byte stayed.
        assert media_after(160)[0] < 2 * media_after(40)[0]

    def test_media_space_stays_flat_as_history_grows(self):
        # The same for the space the store has allocated: reclaimed
        # extents are free again (1.28 -> 1.32 MB; a store that never
        # reclaimed held 2.49 -> 6.76 MB).
        assert media_after(160)[1] < 2 * media_after(40)[1]


def cut_while_reusing(fault, cut_at, seed=7):
    """Commit ``old`` and ``keep``, delete ``old`` behind a barrier, then
    stream 12-page commits on a 1 MiB device (keeping the last two)
    and cut power during commit ``cut_at``, once its records are
    durable and before its superblock is.  ``fault`` adds one more:
    ``flip`` the newest durable slot at the cut (at ``cut_at=0`` the
    delete's own), ``drop`` the delete's superblock write, or
    ``reboot`` with nothing in flight right after the delete and flip
    the delete's slot at the cut.  Returns the recovered store, what
    every snapshot it may list must read back, and whether the cut
    commit's records had landed in ``old``'s extents."""
    store, rng = new_store(capacity=1 << 20), random.Random(seed)
    faults = FailpointRegistry(clock=store.device.clock)
    store.attach_faults(faults)
    expect = {}
    old, expect["old"] = commit_pages(store, "old", rng)
    _keep, expect["keep"] = commit_pages(store, "keep", rng)
    store.flush_barrier()
    if fault == "drop":
        faults.arm(fault_names.FP_DEVICE_WRITE, FaultAction("drop"))
    store.delete_snapshot(old.snap_id)
    delete_generation = store.volume.generation
    store.flush_barrier()
    if fault == "reboot":
        store.device.crash()
        store, _report = reboot(store.device)
    live = []
    for step in range(cut_at + 1):
        payloads = [rng.randbytes(PAGE_SIZE) for _ in range(12)]
        refs = [store.write_page(p) for p in payloads]
        expect[f"s{step}"] = dict(zip(refs, payloads))
        if step == cut_at:
            break
        live.append(store.commit_snapshot(f"s{step}", meta=None, records=[], pages=refs))
        if len(live) > 2:
            store.delete_snapshot(live.pop(0).snap_id)
        store.flush_barrier()
    store.flush_barrier()  # the cut commit's records are durable
    store.commit_snapshot(f"s{cut_at}", meta=None, records=[], pages=refs)
    assert store.device.pending_writes()
    store.device.crash()
    if fault == "flip":
        flip_slot(store, store.volume.generation - 1)
    elif fault == "reboot":
        flip_slot(store, delete_generation)
    reused = overlaps([ref.extent for ref in refs],
                      [ref.extent for ref in expect["old"]])
    rebooted, report = reboot(store.device)
    return rebooted, report, expect, reused


class TestNoSlotNamesReusedSpace:
    @pytest.mark.parametrize("fault", ["flip", "drop", "reboot"])
    def test_a_second_fault_during_reuse_never_returns_a_wrong_page(self, fault):
        # Cut at every commit from the delete's to two past the first
        # that reuses the deleted snapshot's extents; each recovered
        # snapshot must read back exactly what was committed.
        first_reuse = None
        for cut_at in range(40):
            rebooted, report, expect, reused = cut_while_reusing(fault, cut_at)
            assert report.snapshots_discarded == 0, (cut_at, report.errors)
            assert rebooted.snapshot_by_name("keep") is not None, cut_at
            for snap in rebooted.snapshots():
                for ref in rebooted.load_manifest(snap).pages:
                    assert rebooted.read_page(ref) == expect[snap.name][ref], \
                        (cut_at, snap.name)
            if reused and first_reuse is None:
                first_reuse = cut_at
            if first_reuse is not None and cut_at >= first_reuse + 2:
                break
        assert first_reuse is not None, "nothing reused the deleted snapshot's extents"

    def test_a_reboot_keeps_what_the_older_slot_names(self):
        # The delete's generation is adopted; the older slot still lists
        # ``old``, so its extents are garbage until the next superblock
        # replaces that slot, not free.
        store, rng = new_store(), random.Random(8)
        old, old_pages = commit_pages(store, "old", rng)
        commit_pages(store, "keep", rng)
        store.flush_barrier()
        store.delete_snapshot(old.snap_id)
        store.flush_barrier()
        store.device.crash()
        rebooted, _report = reboot(store.device)
        assert all(rebooted.garbage.get(ref.extent) == (1, 0) for ref in old_pages)
        assert rebooted.garbage.get(old.manifest_extent) == (1, 0)

    def test_a_log_carved_from_reclaimed_space_outlives_a_stale_slot(self):
        # A dropped write leaves the delete's slot holding a generation
        # that lists ``old``.  The next commit point reclaims ``old``'s
        # extents, a log is carved from them (this one-queue device's
        # cursor wraps), and power is cut before the superblock that
        # would replace the stale slot lands.  The reboot keeps what
        # that slot names as garbage; the reopened log's claim wins, so
        # no later commit lands inside it.
        store, rng = new_store(capacity=112 << 10, queues=1), random.Random(10)
        faults = FailpointRegistry(clock=store.device.clock)
        store.attach_faults(faults)
        old, _pages = commit_pages(store, "old", rng)
        commit_pages(store, "keep", rng, count=1)
        store.flush_barrier()
        faults.arm(fault_names.FP_DEVICE_WRITE, FaultAction("drop"))
        store.delete_snapshot(old.snap_id)  # its one write: the superblock
        for name in ("replaces-the-older-slot", "reclaims"):
            store.flush_barrier()
            commit_pages(store, name, rng, count=1)
        log = PersistentLog(store, owner_oid=1,
                            capacity=store.allocator.free_extents()[0].length)
        assert overlaps([log.region], [old.manifest_extent])
        assert store.device.pending_writes()
        store.device.crash()

        rebooted, _report = reboot(store.device)
        assert old.manifest_extent in rebooted.garbage  # the stale slot names it
        reopened = PersistentLog(rebooted, owner_oid=1, region=log.region)
        assert not overlaps([log.region], rebooted.garbage)
        reopened.append(b"after-reboot")
        live = []
        for step in range(8):
            rebooted.flush_barrier()
            live.append(commit_pages(rebooted, f"after-{step}", rng, count=1)[0])
            if len(live) > 2:
                rebooted.delete_snapshot(live.pop(0).snap_id)
        rebooted.flush_barrier()
        assert [payload for _seq, payload in reopened.scan_region()] == [b"after-reboot"]


def test_a_long_stream_runs_in_a_small_device():
    # 400 commits of 12 incompressible pages, 19.7 MB in all, through a
    # 1 MiB device: only reclaimed space makes room for them.
    store, rng = new_store(capacity=1 << 20), random.Random(9)
    live = []
    for step in range(400):
        live.append(commit_pages(store, f"s{step}", rng))
        if len(live) > 3:
            store.delete_snapshot(live.pop(0)[0].snap_id)
    store.flush_barrier()
    for _snap, pages in live:
        for ref, payload in pages.items():
            assert store.read_page(ref) == payload
