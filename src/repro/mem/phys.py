"""Physical memory: frame allocation and reference counting.

Frames are shared aggressively in Aurora — between processes (shared
mappings), between a running application and its checkpoint images
(COW), and between unrelated restored instances (dedup warm-up) — so
every frame is refcounted here, and the pool enforces the machine's
physical memory limit, which is what forces swapping.
"""

from __future__ import annotations

import itertools

from repro.errors import OutOfMemoryError
from repro.mem.page import Page
from repro.units import GIB, PAGE_SIZE


class PhysicalMemory:
    """Allocator and accounting for physical page frames."""

    def __init__(self, total_bytes: int = 96 * GIB):
        if total_bytes < PAGE_SIZE:
            raise ValueError("physical memory smaller than one page")
        self.total_frames = total_bytes // PAGE_SIZE
        self._next_pfn = itertools.count(1)
        #: ids of the VM objects holding this machine's pages
        self.oids = itertools.count(1)
        self._allocated = 0
        #: peak concurrently-allocated frames, for experiment reporting
        self.peak_frames = 0
        #: cumulative allocations, for fault accounting
        self.total_allocations = 0

    # -- properties ------------------------------------------------------

    @property
    def allocated_frames(self) -> int:
        return self._allocated

    @property
    def free_frames(self) -> int:
        return self.total_frames - self._allocated

    @property
    def allocated_bytes(self) -> int:
        return self._allocated * PAGE_SIZE

    def pressure(self) -> float:
        """Fraction of physical memory in use (pageout trigger input)."""
        return self._allocated / self.total_frames

    # -- allocation ------------------------------------------------------

    def allocate(self, payload: bytes = b"") -> Page:
        """Allocate a fresh frame with ``payload`` (refcount 1)."""
        if self._allocated >= self.total_frames:
            raise OutOfMemoryError(
                f"physical memory exhausted ({self.total_frames} frames)"
            )
        self._allocated += 1
        self.total_allocations += 1
        self.peak_frames = max(self.peak_frames, self._allocated)
        return Page(pfn=next(self._next_pfn), payload=payload)

    def copy(self, page: Page) -> Page:
        """Allocate a frame holding a copy of ``page``'s content.

        The replacement frame remembers its ancestor's content hash and
        starts an empty dirty-extent list: if only a small byte range
        diverges before the next checkpoint, the object store can
        persist it as a sub-page delta against the ancestor's record.
        """
        fresh = self.allocate(payload=page.snapshot_payload())
        fresh.base_hash = page.content_hash()
        fresh.dirty_extents = []
        return fresh

    # -- refcounting -----------------------------------------------------

    def hold(self, page: Page) -> Page:
        """Take an additional reference on a frame."""
        if page.refcount <= 0:
            raise AssertionError(f"hold of dead frame pfn={page.pfn}")
        page.refcount += 1
        return page

    def release(self, page: Page) -> bool:
        """Drop a reference; frees the frame at zero.  True if freed."""
        if page.refcount <= 0:
            raise AssertionError(f"double free of frame pfn={page.pfn}")
        page.refcount -= 1
        if page.refcount == 0:
            self._allocated -= 1
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"<PhysicalMemory {self._allocated}/{self.total_frames} frames"
            f" ({self.pressure():.1%})>"
        )
