"""Unit tests for physical pages and the frame allocator."""

import pytest

from repro.errors import OutOfMemoryError
from repro.mem.page import ZERO_PAGE_HASH, Page
from repro.mem.phys import PhysicalMemory
from repro.units import MIB, PAGE_SIZE


class TestPageContent:
    def test_fresh_page_reads_zero(self):
        page = Page(pfn=1)
        assert page.read(0, 16) == b"\x00" * 16
        assert page.is_zero()

    def test_write_read_roundtrip(self):
        page = Page(pfn=1)
        page.write(100, b"hello")
        assert page.read(100, 5) == b"hello"

    def test_zero_padding_beyond_payload(self):
        page = Page(pfn=1, payload=b"abc")
        assert page.read(0, 8) == b"abc\x00\x00\x00\x00\x00"

    def test_read_whole_page_default(self):
        page = Page(pfn=1, payload=b"xy")
        assert len(page.read()) == PAGE_SIZE

    def test_write_at_page_end(self):
        page = Page(pfn=1)
        page.write(PAGE_SIZE - 4, b"tail")
        assert page.read(PAGE_SIZE - 4, 4) == b"tail"

    def test_out_of_bounds_rejected(self):
        page = Page(pfn=1)
        with pytest.raises(ValueError):
            page.write(PAGE_SIZE - 2, b"xxx")
        with pytest.raises(ValueError):
            page.read(PAGE_SIZE, 1)

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError):
            Page(pfn=1, payload=b"x" * (PAGE_SIZE + 1))

    def test_frozen_page_write_asserts(self):
        page = Page(pfn=1)
        page.frozen = True
        with pytest.raises(AssertionError):
            page.write(0, b"x")


class TestContentHash:
    def test_zero_page_hash_constant(self):
        assert Page(pfn=1).content_hash() == ZERO_PAGE_HASH

    def test_equal_content_equal_hash(self):
        a = Page(pfn=1, payload=b"same")
        b = Page(pfn=2, payload=b"same")
        assert a.content_hash() == b.content_hash()

    def test_padding_normalized(self):
        a = Page(pfn=1, payload=b"data")
        b = Page(pfn=2, payload=b"data" + b"\x00" * 100)
        assert a.content_hash() == b.content_hash()

    def test_hash_invalidated_by_write(self):
        page = Page(pfn=1, payload=b"v1")
        before = page.content_hash()
        page.write(0, b"v2")
        assert page.content_hash() != before


class TestPhysicalMemory:
    def test_allocation_accounting(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        assert phys.total_frames == 256
        page = phys.allocate()
        assert phys.allocated_frames == 1
        assert phys.free_frames == 255
        assert page.refcount == 1

    def test_unique_pfns(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        pfns = {phys.allocate().pfn for _ in range(10)}
        assert len(pfns) == 10

    def test_oom(self):
        phys = PhysicalMemory(total_bytes=2 * PAGE_SIZE)
        phys.allocate()
        phys.allocate()
        with pytest.raises(OutOfMemoryError):
            phys.allocate()

    def test_release_frees_at_zero(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        page = phys.allocate()
        phys.hold_many([page])
        assert not phys.release(page)
        assert phys.allocated_frames == 1
        assert phys.release(page)
        assert phys.allocated_frames == 0

    def test_double_free_asserts(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        page = phys.allocate()
        phys.release(page)
        with pytest.raises(AssertionError):
            phys.release(page)

    def test_hold_of_dead_frame_asserts(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        page = phys.allocate()
        phys.release(page)
        with pytest.raises(AssertionError):
            phys.hold_many([page])

    def test_copy_duplicates_content(self):
        phys = PhysicalMemory(total_bytes=1 * MIB)
        source = phys.allocate(payload=b"original")
        copy = phys.copy(source)
        assert copy.read(0, 8) == b"original"
        assert copy.pfn != source.pfn

    def test_pressure_and_peak(self):
        phys = PhysicalMemory(total_bytes=4 * PAGE_SIZE)
        pages = [phys.allocate() for _ in range(3)]
        assert phys.pressure() == 0.75
        assert phys.peak_frames == 3
        phys.release(pages[0])
        assert phys.peak_frames == 3

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(total_bytes=100)
