"""Unit tests for VM objects and shadow chains."""

import pytest

from repro.errors import MappingError
from repro.mem.address_space import AddressSpace, MemContext
from repro.mem.phys import PhysicalMemory
from repro.mem.vmobject import ObjectKind, VMObject
from repro.sim.clock import SimClock
from repro.units import MIB, PAGE_SIZE


@pytest.fixture
def phys():
    return PhysicalMemory(total_bytes=16 * MIB)


def fault(obj, pindex, for_write):
    """Fault page ``pindex`` of ``obj`` through ``AddressSpace.fault``,
    the kernel's fault path, from a private mapping of the whole object
    that is torn down again (``obj`` keeps only its own references)."""
    aspace = AddressSpace(MemContext(SimClock(), obj.phys))
    entry = aspace.mmap(obj.size_pages * PAGE_SIZE, obj=obj)
    try:
        return aspace.fault(entry.start + pindex * PAGE_SIZE, for_write)
    finally:
        aspace.destroy()


class TestResidency:
    def test_insert_and_lookup(self, phys):
        obj = VMObject(phys, size_pages=10)
        page = phys.allocate(payload=b"data")
        obj.insert_page(3, page)
        found, owner = obj.lookup(3)
        assert found is page
        assert owner is obj

    def test_out_of_range_insert(self, phys):
        obj = VMObject(phys, size_pages=4)
        with pytest.raises(MappingError):
            obj.insert_page(4, phys.allocate())

    def test_insert_replaces_and_releases(self, phys):
        obj = VMObject(phys, size_pages=4)
        old = phys.allocate()
        obj.insert_page(0, old)
        obj.insert_page(0, phys.allocate())
        assert old.refcount == 0
        assert phys.allocated_frames == 1

    def test_iter_resident_sorted(self, phys):
        obj = VMObject(phys, size_pages=10)
        for i in (5, 1, 3):
            obj.insert_page(i, phys.allocate())
        assert [i for i, _ in obj.iter_resident()] == [1, 3, 5]


class TestShadowChains:
    def test_lookup_walks_chain(self, phys):
        base = VMObject(phys, size_pages=8)
        page = phys.allocate(payload=b"base")
        base.insert_page(2, page)
        shadow = base.make_shadow(phys)
        found, owner = shadow.lookup(2)
        assert found is page
        assert owner is base

    def test_shadow_page_overrides_base(self, phys):
        base = VMObject(phys, size_pages=8)
        base.insert_page(2, phys.allocate(payload=b"old"))
        shadow = base.make_shadow(phys)
        newer = phys.allocate(payload=b"new")
        shadow.insert_page(2, newer)
        found, owner = shadow.lookup(2)
        assert found is newer
        assert owner is shadow

    def test_write_fault_copies_up(self, phys):
        base = VMObject(phys, size_pages=8)
        base.insert_page(1, phys.allocate(payload=b"original"))
        shadow = base.make_shadow(phys)
        page = fault(shadow, 1, for_write=True)
        assert page.read(0, 8) == b"original"
        assert shadow.resident_page(1) is page
        # Base unchanged.
        assert base.resident_page(1).read(0, 8) == b"original"
        assert base.resident_page(1) is not page

    def test_read_fault_shares_backing(self, phys):
        base = VMObject(phys, size_pages=8)
        original = phys.allocate(payload=b"shared")
        base.insert_page(1, original)
        shadow = base.make_shadow(phys)
        assert fault(shadow, 1, for_write=False) is original
        assert shadow.resident_page(1) is None  # not copied

    def test_shadow_offset(self, phys):
        base = VMObject(phys, size_pages=8)
        base.insert_page(5, phys.allocate(payload=b"x"))
        shadow = VMObject(phys, size_pages=4, shadow=base, shadow_offset=3)
        found, _ = shadow.lookup(2)  # 2 + 3 == 5
        assert found is not None


class TestFaultResolution:
    def test_zero_fill(self, phys):
        obj = VMObject(phys, size_pages=4)
        page = fault(obj, 0, for_write=False)
        assert page.is_zero()
        assert obj.resident_page(0) is page

    def test_pager_supplies_content(self, phys):
        obj = VMObject(phys, size_pages=4, pager=lambda i: b"paged-%d" % i)
        page = fault(obj, 2, for_write=False)
        assert page.read(0, 7) == b"paged-2"

    def test_pager_none_falls_back_to_zero(self, phys):
        obj = VMObject(phys, size_pages=4, pager=lambda i: None)
        assert fault(obj, 0, for_write=False).is_zero()

    def test_fault_idempotent(self, phys):
        obj = VMObject(phys, size_pages=4)
        first = fault(obj, 0, for_write=True)
        second = fault(obj, 0, for_write=True)
        assert first is second


class TestLifecycle:
    def test_unref_releases_pages(self, phys):
        obj = VMObject(phys, size_pages=4)
        fault(obj, 0, for_write=True)
        fault(obj, 1, for_write=True)
        assert phys.allocated_frames == 2
        obj.unref()
        assert phys.allocated_frames == 0

    def test_shadow_holds_base_alive(self, phys):
        base = VMObject(phys, size_pages=4)
        base.insert_page(0, phys.allocate())
        shadow = base.make_shadow(phys)
        base.unref()  # shadow still holds a ref
        assert phys.allocated_frames == 1
        shadow.unref()
        assert phys.allocated_frames == 0

    def test_negative_size_rejected(self, phys):
        with pytest.raises(MappingError):
            VMObject(phys, size_pages=-1)

    def test_kind_recorded(self, phys):
        obj = VMObject(phys, size_pages=1, kind=ObjectKind.CHECKPOINT)
        assert obj.kind is ObjectKind.CHECKPOINT
