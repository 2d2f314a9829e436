"""Tests for Aurora's checkpoint COW engine — the paper's core mechanism.

The decisive property (paper §3): after a checkpoint freezes shared
pages, a write by ANY process produces a new page visible to ALL
processes mapping the object — unlike fork-style COW, which would give
the writer a private copy and break shared-memory semantics.
"""

import pytest

from repro.mem.address_space import AddressSpace, MemContext
from repro.mem.cow import AuroraCow
from repro.mem.phys import PhysicalMemory
from repro.sim.clock import SimClock
from repro.units import GIB, KIB, PAGE_SIZE


@pytest.fixture
def mem():
    return MemContext(SimClock(), PhysicalMemory(total_bytes=2 * GIB))


@pytest.fixture
def cow(mem):
    return AuroraCow(mem)


@pytest.fixture
def aspace(mem, cow):
    return AddressSpace(mem, "app")


class TestFreeze:
    def test_freeze_captures_resident_pages(self, aspace, cow):
        entry = aspace.mmap(64 * KIB)
        aspace.populate(entry.start, 64 * KIB, fill=b"x")
        freeze = cow.freeze(aspace.vm_objects())
        assert len(freeze) == 16
        assert all(page.frozen for _obj, _pindex, page in freeze.iter_pages())

    def test_freeze_holds_references(self, aspace, cow, mem):
        entry = aspace.mmap(4 * PAGE_SIZE)
        aspace.populate(entry.start, 4 * PAGE_SIZE, fill=b"x")
        cow.freeze(aspace.vm_objects())
        page = entry.obj.resident_page(0)
        assert page.refcount == 2  # object + checkpoint

    def test_freeze_write_protects_ptes(self, aspace, cow):
        entry = aspace.mmap(4 * PAGE_SIZE)
        aspace.write(entry.start, b"data")
        cow.freeze(aspace.vm_objects())
        pte = aspace.pagetable.lookup(entry.start >> 12)
        assert pte is not None and not pte.writable

    def test_freeze_advances_epoch(self, aspace, cow, mem):
        entry = aspace.mmap(4 * PAGE_SIZE)
        aspace.write(entry.start, b"x")
        before = mem.epoch
        cow.freeze(aspace.vm_objects())
        assert mem.epoch == before + 1

    def test_freeze_charges_per_page(self, aspace, cow, mem):
        entry = aspace.mmap(256 * PAGE_SIZE)
        aspace.populate(entry.start, 256 * PAGE_SIZE, fill=b"x")
        before = mem.clock.now
        cow.freeze(aspace.vm_objects())
        charged = mem.clock.now - before
        expected = 256 * mem.cpu.pte_cow_arm_ns
        assert abs(charged - expected) <= 256  # carry rounding

    def test_empty_freeze(self, aspace, cow):
        aspace.mmap(4 * PAGE_SIZE)  # nothing resident
        freeze = cow.freeze(aspace.vm_objects())
        assert len(freeze) == 0


class TestSharedPageCow:
    """The crux: Aurora COW preserves sharing; fork COW does not."""

    def _shared_pair(self, mem):
        a = AddressSpace(mem, "a")
        b = AddressSpace(mem, "b")
        entry_a = a.mmap(64 * KIB, shared=True, name="shm")
        b.mmap(64 * KIB, shared=True, obj=entry_a.obj, addr=entry_a.start)
        a.write(entry_a.start, b"initial!")
        return a, b, entry_a

    def test_post_freeze_write_visible_to_all_sharers(self, mem, cow):
        a, b, entry = self._shared_pair(mem)
        cow.freeze([entry.obj])
        a.write(entry.start, b"UPDATED!")
        # THE property: b sees a's post-checkpoint write.
        assert b.read(entry.start, 8) == b"UPDATED!"

    def test_frozen_original_preserved_for_checkpoint(self, mem, cow):
        a, b, entry = self._shared_pair(mem)
        freeze = cow.freeze([entry.obj])
        frozen_page = freeze.runs[0].pages[0]
        a.write(entry.start, b"UPDATED!")
        # The checkpoint still owns the pre-write content.
        assert frozen_page.read(0, 8) == b"initial!"
        assert frozen_page.frozen

    def test_fork_style_cow_breaks_sharing_counterexample(self, mem, cow):
        """Demonstrates WHY the kernel forbids fork-COW on shared pages."""
        a, b, entry = self._shared_pair(mem)
        # Simulate fork-style COW: give a a private shadow of the
        # shared object (what fork does to private mappings).
        shadow = entry.obj.make_shadow(mem.phys)
        entry.obj.unregister_mapping(entry)
        original = entry.obj
        entry.obj = shadow
        shadow.register_mapping(entry)
        original.unref()
        a.pagetable.clear()
        a.write(entry.start, b"PRIVATE!")
        # Sharing is broken: b does NOT see a's write.
        assert b.read(entry.start, 8) == b"initial!"

    def test_cow_fault_updates_all_ptes(self, mem, cow):
        a, b, entry = self._shared_pair(mem)
        b.read(entry.start, 1)  # b has a PTE too
        cow.freeze([entry.obj])
        a.write(entry.start, b"NEW")
        pte_b = b.pagetable.lookup(entry.start >> 12)
        assert pte_b.page.read(0, 3) == b"NEW"

    def test_replacement_page_is_writable_again(self, mem, cow):
        a, b, entry = self._shared_pair(mem)
        cow.freeze([entry.obj])
        a.write(entry.start, b"first")
        faults_before = cow.stats.cow_faults
        a.write(entry.start, b"second")  # fast path now
        assert cow.stats.cow_faults == faults_before


class TestIncremental:
    def test_never_flushes_same_page_twice(self, aspace, cow, mem):
        entry = aspace.mmap(16 * PAGE_SIZE)
        aspace.populate(entry.start, 16 * PAGE_SIZE, fill=b"x")
        first = cow.freeze(aspace.vm_objects())
        assert len(first) == 16
        # Dirty 2 pages.
        aspace.write(entry.start, b"dirty0")
        aspace.write(entry.start + 5 * PAGE_SIZE, b"dirty5")
        second = cow.freeze(aspace.vm_objects(), incremental_since=first.epoch + 1)
        assert len(second) == 2
        captured = {pindex for _obj, pindex, _page in second.iter_pages()}
        assert captured == {0, 5}

    def test_untouched_interval_captures_nothing(self, aspace, cow):
        entry = aspace.mmap(16 * PAGE_SIZE)
        aspace.populate(entry.start, 16 * PAGE_SIZE, fill=b"x")
        first = cow.freeze(aspace.vm_objects())
        second = cow.freeze(aspace.vm_objects(), incremental_since=first.epoch + 1)
        assert len(second) == 0

    def test_new_pages_are_captured(self, aspace, cow):
        entry = aspace.mmap(16 * PAGE_SIZE)
        aspace.write(entry.start, b"early")
        first = cow.freeze(aspace.vm_objects())
        aspace.write(entry.start + 8 * PAGE_SIZE, b"brand-new page")
        second = cow.freeze(aspace.vm_objects(), incremental_since=first.epoch + 1)
        assert {pindex for _obj, pindex, _page in second.iter_pages()} == {8}

    def test_dirty_page_captured_once_per_interval(self, aspace, cow):
        entry = aspace.mmap(4 * PAGE_SIZE)
        aspace.populate(entry.start, 4 * PAGE_SIZE, fill=b"x")
        first = cow.freeze(aspace.vm_objects())
        aspace.write(entry.start, b"v1")
        aspace.write(entry.start, b"v2")
        aspace.write(entry.start, b"v3")
        second = cow.freeze(aspace.vm_objects(), incremental_since=first.epoch + 1)
        assert len(second) == 1

    def test_other_groups_dirty_pages_preserved(self, mem, cow):
        a = AddressSpace(mem, "a")
        b = AddressSpace(mem, "b")
        ea = a.mmap(4 * PAGE_SIZE)
        eb = b.mmap(4 * PAGE_SIZE)
        a.write(ea.start, b"x")
        fa = cow.freeze(a.vm_objects())
        a.write(ea.start, b"y")
        b.write(eb.start, b"z")  # belongs to b's "group"
        cow.freeze(a.vm_objects(), incremental_since=fa.epoch + 1)
        # b's dirty entry must still be on its object.
        fb = cow.freeze(b.vm_objects(), incremental_since=1)
        assert len(fb) == 1

    def test_capture_order_is_first_dirty_order(self, mem, cow):
        """An incremental freeze captures pages in the order they first
        became dirty, across objects and address spaces — the order one
        machine-wide log would give, which fixes the extent layout."""
        a = AddressSpace(mem, "a")
        b = AddressSpace(mem, "b")
        heap_a = a.mmap(8 * PAGE_SIZE)
        shared_a = a.mmap(8 * PAGE_SIZE, shared=True)
        shared_b = b.mmap(8 * PAGE_SIZE, shared=True, obj=shared_a.obj)
        heap_b = b.mmap(8 * PAGE_SIZE)
        for aspace, entry in ((a, heap_a), (a, shared_a), (b, heap_b)):
            aspace.populate(entry.start, 4 * PAGE_SIZE, fill=b"base")
        objects = [heap_a.obj, shared_a.obj, heap_b.obj]
        first = cow.freeze(objects)
        writes = [
            (b, heap_b, 2), (a, shared_a, 1), (a, heap_a, 0),
            (b, shared_b, 6), (a, heap_a, 5), (b, heap_b, 2),
            (b, shared_b, 1), (a, heap_a, 0), (b, heap_b, 0),
            (a, shared_a, 3),
        ]
        expected = []
        for aspace, entry, pindex in writes:
            aspace.write(entry.start + pindex * PAGE_SIZE, b"w")
            key = (entry.obj.oid, pindex)
            if key not in expected:
                expected.append(key)
        second = cow.freeze(objects, incremental_since=first.epoch + 1)
        assert [(obj.oid, pindex) for obj, pindex, _page in second.iter_pages()] == expected

    def test_freeze_consumes_dirty_lists(self, mem, cow):
        a = AddressSpace(mem, "a")
        b = AddressSpace(mem, "b")
        ea = a.mmap(4 * PAGE_SIZE)
        eb = b.mmap(4 * PAGE_SIZE)
        a.write(ea.start, b"x")
        b.write(eb.start, b"y")
        fa = cow.freeze(a.vm_objects())
        assert ea.obj.dirty == [] and len(eb.obj.dirty) == 1
        a.write(ea.start, b"z")
        assert len(ea.obj.dirty) == 1
        cow.freeze(a.vm_objects(), incremental_since=fa.epoch + 1)
        assert ea.obj.dirty == [] and len(eb.obj.dirty) == 1

    def test_incremental_cheaper_than_full(self, aspace, cow, mem):
        entry = aspace.mmap(1024 * PAGE_SIZE)
        aspace.populate(entry.start, 1024 * PAGE_SIZE, fill=b"x")
        with mem.clock.region() as full_region:
            first = cow.freeze(aspace.vm_objects())
        for i in range(64):
            aspace.write(entry.start + i * PAGE_SIZE, b"dirty")
        with mem.clock.region() as incr_region:
            cow.freeze(aspace.vm_objects(), incremental_since=first.epoch + 1)
        # 1024 pages armed vs 64: cost dominated by arming.
        assert incr_region.elapsed < full_region.elapsed / 5


class TestCowStats:
    def test_stats_track_faults_and_flush_handoff(self, aspace, cow):
        entry = aspace.mmap(4 * PAGE_SIZE)
        aspace.populate(entry.start, 4 * PAGE_SIZE, fill=b"x")
        cow.freeze(aspace.vm_objects())
        aspace.write(entry.start, b"w")
        assert cow.stats.pages_frozen == 4
        assert cow.stats.cow_faults == 1
        assert cow.stats.frames_released_to_flush == 1
