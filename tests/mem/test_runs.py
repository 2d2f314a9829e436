"""The run entry points of the memory layer: frames allocated, held and
released, inserted and mapped a run at a time.

A run is all or nothing where the per-page loop it replaces would stop
half-way, and ``populate`` — which hands each map entry's pages to its
object as one run — keeps the per-page loop's order and its handling
of resident pages, existing PTEs, read-only entries and holes.
"""

import pytest

from repro.errors import OutOfMemoryError, SegmentationFault
from repro.mem.address_space import PROT_READ, PROT_RW, AddressSpace, MemContext
from repro.mem.cow import AuroraCow
from repro.mem.phys import PhysicalMemory
from repro.mem.vmobject import VMObject
from repro.sim.clock import SimClock
from repro.units import GIB, MIB, PAGE_SIZE


def world(total_bytes=2 * GIB):
    mem = MemContext(SimClock(), PhysicalMemory(total_bytes=total_bytes))
    cow = AuroraCow(mem)
    return mem, cow, AddressSpace(mem, "runs")


class TestAllocateMany:
    def test_pfns_ascend_in_payload_order(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        first = phys.allocate()
        pages = phys.allocate_many([b"a", b"b", b"c"])
        assert [p.pfn for p in pages] == [first.pfn + 1, first.pfn + 2, first.pfn + 3]
        assert [p.payload for p in pages] == [b"a", b"b", b"c"]
        assert phys.allocated_frames == phys.total_allocations == phys.peak_frames == 4

    def test_out_of_memory_uses_up_nothing(self):
        phys = PhysicalMemory(total_bytes=4 * PAGE_SIZE)
        phys.allocate()
        before = (phys.allocated_frames, phys.total_allocations, phys.peak_frames)
        with pytest.raises(OutOfMemoryError):
            phys.allocate_many([b""] * 4)
        assert (phys.allocated_frames, phys.total_allocations, phys.peak_frames) == before
        # no pfn was consumed either: the next frame is the next pfn
        assert [p.pfn for p in phys.allocate_many([b""] * 3)] == [2, 3, 4]

    def test_oversized_payload_uses_up_nothing(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        with pytest.raises(ValueError):
            phys.allocate_many([b"ok", bytes(PAGE_SIZE + 1)])
        assert phys.allocated_frames == phys.total_allocations == 0
        assert phys.allocate().pfn == 1


class TestReleaseMany:
    def test_frees_frames_that_reach_zero(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        pages = phys.allocate_many([b""] * 3)
        phys.hold_many([pages[1]])
        assert phys.release_many(pages) == 2
        assert phys.allocated_frames == 1
        assert pages[1].refcount == 1

    def test_dead_frame_raises_and_changes_nothing(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        live = phys.allocate_many([b""] * 3)
        dead = phys.allocate()
        phys.release(dead)
        with pytest.raises(AssertionError):
            phys.release_many([*live, dead])
        assert phys.allocated_frames == 3
        assert [p.refcount for p in live] == [1, 1, 1]

    def test_a_naive_loop_would_free_frames_and_then_fail(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        live = phys.allocate_many([b""] * 3)
        dead = phys.allocate()
        phys.release(dead)
        with pytest.raises(AssertionError):
            for page in [*live, dead]:
                phys.release(page)
        # three frames freed before the loop hit the dead one
        assert phys.allocated_frames == 0

    def test_a_frame_listed_twice_loses_two_references(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        page = phys.allocate()
        with pytest.raises(AssertionError):
            phys.release_many([page, page])
        assert page.refcount == 1 and phys.allocated_frames == 1
        phys.hold_many([page])
        assert phys.release_many([page, page]) == 1
        assert phys.allocated_frames == 0

    def test_hold_many_of_a_dead_frame_holds_nothing(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        live = phys.allocate_many([b""] * 2)
        dead = phys.allocate()
        phys.release(dead)
        with pytest.raises(AssertionError):
            phys.hold_many([*live, dead])
        assert [p.refcount for p in live] == [1, 1]


def test_charge_each_keeps_the_carries_of_a_charge_loop():
    costs = [9.815, 13.56 * 2, 0.663, 9.815, 120.0, 0.25] * 50
    looped, folded = world()[0], world()[0]
    for ns in costs:
        looped.charge(ns)
    folded.charge_each(costs)
    assert folded.clock.now == looped.clock.now
    assert folded._charge_carry == looped._charge_carry


class TestInsertRun:
    def test_replaced_pages_are_released(self):
        mem, _cow, _aspace = world()
        obj = VMObject(mem.phys, size_pages=8)
        old = mem.phys.allocate_many([b"old"] * 2)
        obj.insert_run([2, 3], old)
        new = mem.phys.allocate_many([b"new"] * 3)
        obj.insert_run([3, 4, 5], new)
        assert [obj.pages[p] for p in (2, 3, 4, 5)] == [old[0], *new]
        assert old[1].refcount == 0 and mem.phys.allocated_frames == 4


class TestPopulate:
    def test_adjacent_entries_and_a_partly_resident_range(self):
        mem, _cow, aspace = world()
        text = aspace.mmap(4 * PAGE_SIZE, prot=PROT_READ, name="text")
        heap = aspace.mmap(4 * PAGE_SIZE, prot=PROT_RW, name="heap",
                           addr=text.end)
        # Partly resident: heap page 1 faulted in (page and PTE), heap
        # page 2 resident in the object with no PTE.
        aspace.write(heap.start + PAGE_SIZE, b"kept")
        kept_page = heap.obj.pages[1]
        kept_pte = aspace.pagetable.lookup(heap.start_vpn + 1)
        loose = mem.phys.allocate(b"loose")
        heap.obj.insert_page(2, loose)
        seq_before = heap.obj.dirty[-1][0] + 1  # the next sequence number

        assert aspace.populate(text.start, 8 * PAGE_SIZE,
                               fill_fn=lambda i: b"page-%d" % i) == 8

        assert heap.obj.pages[1] is kept_page and heap.obj.pages[2] is loose
        assert aspace.pagetable.lookup(heap.start_vpn + 1) is kept_pte
        assert kept_page.payload.startswith(b"kept")
        assert aspace.pagetable.lookup(heap.start_vpn + 2).page is loose
        # new frames, in vpn order: text 0-3, heap 0, heap 3
        fresh = [text.obj.pages[p] for p in range(4)] + [heap.obj.pages[0], heap.obj.pages[3]]
        pfns = [page.pfn for page in fresh]
        assert pfns == sorted(pfns) and len(set(pfns)) == 6
        assert [page.payload for page in fresh] == [
            b"page-0", b"page-1", b"page-2", b"page-3", b"page-4", b"page-7"]
        logged = text.obj.dirty + [e for e in heap.obj.dirty if e[0] >= seq_before]
        assert [page for _seq, _pindex, page in logged] == fresh
        seqs = [seq for seq, _pindex, _page in logged]
        assert seqs == list(range(seq_before, seq_before + 6))
        # the read-only entry's PTEs are not writable, the heap's are
        assert not any(aspace.pagetable.lookup(text.start_vpn + i).writable
                       for i in range(4))
        assert aspace.pagetable.lookup(heap.start_vpn + 3).writable

    def test_a_hole_faults_after_the_mapped_part_is_populated(self):
        mem, _cow, aspace = world()
        low = aspace.mmap(2 * PAGE_SIZE, name="low")
        high = aspace.mmap(2 * PAGE_SIZE, name="high", addr=low.end + PAGE_SIZE)
        clock_before = mem.clock.now
        with pytest.raises(SegmentationFault) as fault:
            aspace.populate(low.start, 5 * PAGE_SIZE, fill=b"x")
        assert fault.value.address == low.end
        assert sorted(low.obj.pages) == [0, 1]
        assert len(aspace.pagetable) == 2
        assert not high.obj.pages
        assert mem.clock.now == clock_before  # charged only on success

    def test_charges_what_the_page_loop_charged(self):
        mem, _cow, aspace = world()
        entry = aspace.mmap(16 * PAGE_SIZE)
        aspace.populate(entry.start, 16 * PAGE_SIZE, fill=b"x")
        cpu = mem.cpu
        per_page = cpu.fault_trap_ns + cpu.zero_fill_ns + cpu.pte_install_ns
        assert mem.clock.now == int(16 * per_page)
        assert mem.stats.major == mem.stats.zero_fill == 16


def counting(obj, name, counts):
    """Count calls to ``obj.name`` into ``counts[name]``."""
    original = getattr(obj, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    setattr(obj, name, counted)


@pytest.mark.parametrize("pages", [64, 4096])
class TestCallCounts:
    """What a run costs in calls must not depend on how many pages it
    carries (counted, not timed)."""

    def test_populate_allocates_once_per_map_entry(self, pages):
        mem, _cow, aspace = world()
        first = aspace.mmap(pages * PAGE_SIZE, name="a")
        aspace.mmap(pages * PAGE_SIZE, name="b", addr=first.end, prot=PROT_READ)
        aspace.mmap(pages * PAGE_SIZE, name="c", addr=first.end + pages * PAGE_SIZE)
        counts = {}
        counting(mem.phys, "allocate", counts)
        counting(mem.phys, "allocate_many", counts)
        aspace.populate(first.start, 3 * pages * PAGE_SIZE, fill=b"x")
        assert counts == {"allocate_many": 3}
        assert mem.phys.allocated_frames == 3 * pages

    def test_a_full_freeze_holds_each_object_once(self, pages):
        mem, cow, aspace = world()
        entry = aspace.mmap(pages * PAGE_SIZE)
        aspace.populate(entry.start, pages * PAGE_SIZE, fill_fn=lambda i: b"%d" % i)
        counts = {}
        counting(mem.phys, "hold_many", counts)
        freeze = cow.freeze([entry.obj])
        assert len(freeze) == pages and len(freeze.runs) == 1
        assert counts == {"hold_many": 1}
        assert all(page.refcount == 2 for page in freeze.runs[0].pages)
