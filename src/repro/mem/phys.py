"""Physical memory: frame allocation and reference counting.

Frames are shared aggressively in Aurora — between processes (shared
mappings), between a running application and its checkpoint images
(COW), and between unrelated restored instances (dedup warm-up) — so
every frame is refcounted here, and the pool enforces the machine's
physical memory limit, which is what forces swapping.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.errors import OutOfMemoryError
from repro.mem.page import Page
from repro.units import GIB, PAGE_SIZE


class PhysicalMemory:
    """Allocator and accounting for physical page frames."""

    def __init__(self, total_bytes: int = 96 * GIB):
        if total_bytes < PAGE_SIZE:
            raise ValueError("physical memory smaller than one page")
        self.total_frames = total_bytes // PAGE_SIZE
        self._next_pfn = 1
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
        page = Page(pfn=self._next_pfn, payload=payload)
        self._next_pfn += 1
        self._allocated += 1
        self.total_allocations += 1
        if self._allocated > self.peak_frames:
            self.peak_frames = self._allocated
        return page

    def allocate_many(self, payloads: Sequence[bytes]) -> list[Page]:
        """Allocate one fresh frame per payload, with ascending pfns.

        All or nothing: if the frames do not all fit (or a payload
        exceeds a page), no frame, pfn or allocation count is used up.
        """
        count = len(payloads)
        if self._allocated + count > self.total_frames:
            raise OutOfMemoryError(
                f"physical memory exhausted ({self.total_frames} frames)"
            )
        pfn = self._next_pfn
        pages = list(map(Page, range(pfn, pfn + count), payloads))
        self._next_pfn = pfn + count
        self._allocated += count
        self.total_allocations += count
        if self._allocated > self.peak_frames:
            self.peak_frames = self._allocated
        return pages

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

    def hold_many(self, pages: Sequence[Page]) -> None:
        """Take an additional reference on each of ``pages``; all or
        nothing if one of them is dead."""
        for done, page in enumerate(pages):
            if page.refcount <= 0:
                for undo in pages[:done]:
                    undo.refcount -= 1
                raise AssertionError(f"hold of dead frame pfn={page.pfn}")
            page.refcount += 1

    def release(self, page: Page) -> bool:
        """Drop a reference; frees the frame at zero.  True if freed."""
        if page.refcount <= 0:
            raise AssertionError(f"double free of frame pfn={page.pfn}")
        page.refcount -= 1
        if page.refcount == 0:
            self._allocated -= 1
            return True
        return False

    def release_many(self, pages: Sequence[Page]) -> int:
        """Drop one reference per entry of ``pages`` (a frame listed
        twice loses two), freeing each frame that reaches zero; returns
        how many were freed.  All or nothing: a release past zero
        raises with every refcount and the frame count as they were."""
        freed = 0
        for done, page in enumerate(pages):
            if page.refcount <= 0:
                for undo in pages[:done]:
                    undo.refcount += 1
                raise AssertionError(f"double free of frame pfn={page.pfn}")
            page.refcount -= 1
            if not page.refcount:
                freed += 1
        self._allocated -= freed
        return freed

    def __repr__(self) -> str:
        return (
            f"<PhysicalMemory {self._allocated}/{self.total_frames} frames"
            f" ({self.pressure():.1%})>"
        )
