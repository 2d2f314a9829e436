"""Unit tests for address spaces: mmap/munmap, faults, fork."""

import pytest

from repro.errors import MappingError, SegmentationFault
from repro.mem.address_space import (
    PROT_READ,
    PROT_RW,
    AddressSpace,
    MemContext,
)
from repro.mem.cow import AuroraCow
from repro.mem.phys import PhysicalMemory
from repro.sim.clock import SimClock
from repro.units import GIB, KIB, MIB, PAGE_SIZE


@pytest.fixture
def mem():
    context = MemContext(SimClock(), PhysicalMemory(total_bytes=2 * GIB))
    AuroraCow(context)
    return context


@pytest.fixture
def aspace(mem):
    return AddressSpace(mem, "test")


class TestMapping:
    def test_mmap_basic(self, aspace):
        entry = aspace.mmap(1 * MIB, name="heap")
        assert entry.size == 1 * MIB
        assert entry.obj.size_pages == 256

    def test_mmap_rounds_to_pages(self, aspace):
        entry = aspace.mmap(100)
        assert entry.size == PAGE_SIZE

    def test_mmap_fixed_address(self, aspace):
        entry = aspace.mmap(64 * KIB, addr=0x4000_0000)
        assert entry.start == 0x4000_0000

    def test_mmap_overlap_rejected(self, aspace):
        aspace.mmap(64 * KIB, addr=0x4000_0000)
        with pytest.raises(MappingError):
            aspace.mmap(64 * KIB, addr=0x4000_0000)

    def test_mmap_finds_free_gap(self, aspace):
        a = aspace.mmap(64 * KIB)
        b = aspace.mmap(64 * KIB)
        assert b.start >= a.end or b.end <= a.start

    def test_unaligned_fixed_addr_rejected(self, aspace):
        with pytest.raises(MappingError):
            aspace.mmap(64 * KIB, addr=123)

    def test_zero_length_rejected(self, aspace):
        with pytest.raises(MappingError):
            aspace.mmap(0)

    def test_munmap_whole_entry(self, aspace):
        entry = aspace.mmap(64 * KIB)
        assert aspace.munmap(entry.start, entry.size) == 1
        assert aspace.find_entry(entry.start) is None

    def test_munmap_splits_entry(self, aspace):
        entry = aspace.mmap(16 * PAGE_SIZE)
        start = entry.start
        aspace.munmap(start + 4 * PAGE_SIZE, 4 * PAGE_SIZE)
        assert aspace.find_entry(start) is not None
        assert aspace.find_entry(start + 5 * PAGE_SIZE) is None
        assert aspace.find_entry(start + 9 * PAGE_SIZE) is not None

    def test_split_preserves_contents(self, aspace):
        entry = aspace.mmap(16 * PAGE_SIZE)
        addr = entry.start + 10 * PAGE_SIZE
        aspace.write(addr, b"survivor")
        aspace.munmap(entry.start, 4 * PAGE_SIZE)
        assert aspace.read(addr, 8) == b"survivor"

    def test_mprotect_blocks_writes(self, aspace):
        entry = aspace.mmap(64 * KIB)
        aspace.write(entry.start, b"x")
        aspace.mprotect(entry.start, entry.size, PROT_READ)
        with pytest.raises(SegmentationFault):
            aspace.write(entry.start, b"y")
        assert aspace.read(entry.start, 1) == b"x"


class TestFaults:
    def test_unmapped_access_faults(self, aspace):
        with pytest.raises(SegmentationFault):
            aspace.read(0xDEAD000, 4)

    def test_write_then_read(self, aspace):
        entry = aspace.mmap(64 * KIB)
        aspace.write(entry.start + 100, b"hello world")
        assert aspace.read(entry.start + 100, 11) == b"hello world"

    def test_cross_page_write(self, aspace):
        entry = aspace.mmap(64 * KIB)
        addr = entry.start + PAGE_SIZE - 3
        aspace.write(addr, b"spanning")
        assert aspace.read(addr, 8) == b"spanning"

    def test_fault_stats_counted(self, aspace, mem):
        entry = aspace.mmap(64 * KIB)
        aspace.write(entry.start, b"x")
        assert mem.stats.major == 1
        aspace.read(entry.start, 1)  # PTE hit, no new fault
        assert mem.stats.major == 1

    def test_fault_charges_time(self, aspace, mem):
        entry = aspace.mmap(64 * KIB)
        before = mem.clock.now
        aspace.write(entry.start, b"x")
        assert mem.clock.now > before

    def test_populate(self, aspace):
        entry = aspace.mmap(1 * MIB)
        count = aspace.populate(entry.start, 1 * MIB, fill=b"fill")
        assert count == 256
        assert aspace.resident_pages() == 256
        assert aspace.read(entry.start + 5 * PAGE_SIZE, 4) == b"fill"

    def test_populate_fill_fn_distinct(self, aspace):
        entry = aspace.mmap(4 * PAGE_SIZE)
        aspace.populate(entry.start, 4 * PAGE_SIZE, fill_fn=lambda i: b"p%d" % i)
        assert aspace.read(entry.start + 2 * PAGE_SIZE, 2) == b"p2"

    def test_dirty_list_records_new_pages(self, aspace, mem):
        entry = aspace.mmap(64 * KIB)
        aspace.write(entry.start, b"x")
        aspace.write(entry.start + 3 * PAGE_SIZE, b"y")
        [(seq0, pindex0, page0), (seq1, pindex1, _)] = entry.obj.dirty
        assert (pindex0, pindex1) == (0, 3)
        assert seq0 < seq1
        assert page0 is entry.obj.resident_page(0)
        assert page0.dirty_epoch == mem.epoch


class TestSharedMappings:
    def test_two_spaces_share_object(self, mem):
        a = AddressSpace(mem, "a")
        b = AddressSpace(mem, "b")
        entry_a = a.mmap(64 * KIB, shared=True)
        entry_b = b.mmap(64 * KIB, shared=True, obj=entry_a.obj, addr=entry_a.start)
        a.write(entry_a.start, b"visible")
        assert b.read(entry_b.start, 7) == b"visible"

    def test_shared_write_both_directions(self, mem):
        a = AddressSpace(mem, "a")
        b = AddressSpace(mem, "b")
        entry_a = a.mmap(64 * KIB, shared=True)
        entry_b = b.mmap(64 * KIB, shared=True, obj=entry_a.obj, addr=entry_a.start)
        b.write(entry_b.start, b"from-b")
        assert a.read(entry_a.start, 6) == b"from-b"


class TestFork:
    def test_private_isolation_parent_to_child(self, aspace):
        entry = aspace.mmap(64 * KIB)
        aspace.write(entry.start, b"original")
        child = aspace.fork()
        aspace.write(entry.start, b"parent!!")
        assert child.read(entry.start, 8) == b"original"

    def test_private_isolation_child_to_parent(self, aspace):
        entry = aspace.mmap(64 * KIB)
        aspace.write(entry.start, b"original")
        child = aspace.fork()
        child.write(entry.start, b"child!!!")
        assert aspace.read(entry.start, 8) == b"original"
        assert child.read(entry.start, 8) == b"child!!!"

    def test_unwritten_pages_shared_after_fork(self, aspace, mem):
        entry = aspace.mmap(1 * MIB)
        aspace.populate(entry.start, 1 * MIB, fill=b"x")
        frames_before = mem.phys.allocated_frames
        child = aspace.fork()
        # Reads copy nothing.
        child.read(entry.start, 64)
        assert mem.phys.allocated_frames == frames_before

    def test_fork_shared_mapping_stays_shared(self, aspace):
        entry = aspace.mmap(64 * KIB, shared=True, name="shm")
        aspace.write(entry.start, b"before")
        child = aspace.fork()
        aspace.write(entry.start, b"after!")
        assert child.read(entry.start, 6) == b"after!"
        child.write(entry.start, b"child!")
        assert aspace.read(entry.start, 6) == b"child!"

    def test_fork_copies_layout(self, aspace):
        aspace.mmap(64 * KIB, name="a")
        aspace.mmap(128 * KIB, name="b")
        child = aspace.fork()
        assert len(child.entries) == 2
        assert [e.name for e in child.entries] == ["a", "b"]

    def test_grandchild_fork(self, aspace):
        entry = aspace.mmap(64 * KIB)
        aspace.write(entry.start, b"gen0")
        child = aspace.fork()
        grandchild = child.fork()
        grandchild.write(entry.start, b"gen2")
        assert aspace.read(entry.start, 4) == b"gen0"
        assert child.read(entry.start, 4) == b"gen0"
        assert grandchild.read(entry.start, 4) == b"gen2"


class TestIntrospection:
    def test_vm_objects_unique(self, aspace):
        entry = aspace.mmap(64 * KIB)
        aspace.mmap(64 * KIB, obj=entry.obj, shared=True)
        assert len(aspace.vm_objects()) == 1

    def test_resident_accounting(self, aspace):
        entry = aspace.mmap(1 * MIB)
        aspace.populate(entry.start, 128 * KIB)
        assert aspace.resident_pages() == 32
        assert aspace.resident_bytes() == 128 * KIB

    def test_destroy_releases_everything(self, aspace, mem):
        entry = aspace.mmap(1 * MIB)
        aspace.populate(entry.start, 1 * MIB)
        aspace.destroy()
        assert mem.phys.allocated_frames == 0
        assert len(aspace.entries) == 0
