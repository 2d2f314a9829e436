"""Extent allocation for the object store.

A next-fit extent allocator with eager coalescing.  The COW layout
never overwrites live data: updates allocate fresh extents, and the
store frees a dead one *in place* once no superblock slot names it —
"in-place garbage collection without needing to rewrite incremental
checkpoints" (paper §3).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import StoreFullError
from repro.fault import names as fault_names

if TYPE_CHECKING:  # pragma: no cover
    from repro.fault.registry import FailpointRegistry


@dataclass(frozen=True)
class Extent:
    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


class ExtentAllocator:
    """Next-fit allocator over [base, base+size).

    With ``num_shards > 1`` the range is partitioned into that many
    contiguous *stripes*, one per device submission queue.  Allocations
    that name a shard are carved from that shard's stripe when possible
    (falling back to the whole range under pressure), so a sharded
    checkpoint flush produces per-queue runs that stay contiguous on
    media and coalesce into few large commands.

    Each range searches from where its last allocation ended and wraps
    to its start only when nothing after that fits, so space freed
    behind the cursor waits for the wrap instead of being rescanned by
    every allocation.  Until something is freed, a range passes over a
    free run only when it is too small for the request or ``reserve``
    left it there, so with one request length a record lands exactly
    where first-fit would put it (``tests/objstore/test_alloc.py``
    keeps first-fit as the oracle).  With mixed lengths a run skipped
    as too small waits behind the cursor for the wrap, where first-fit
    would fill it with a later, smaller request.
    """

    def __init__(self, base: int, size: int, num_shards: int = 1):
        if size <= 0:
            raise ValueError("allocator size must be positive")
        if num_shards < 1:
            raise ValueError("allocator needs at least one shard")
        self.base = base
        self.size = size
        self.num_shards = num_shards
        #: stripe boundaries: shard i covers
        #: [shard_bounds[i], shard_bounds[i+1])
        self.shard_bounds = [
            base + (size * i) // num_shards for i in range(num_shards + 1)
        ]
        #: sorted, disjoint, coalesced free list of [offset, end) pairs
        self._free: list[list[int]] = [[base, base + size]]
        #: where the last allocation in each stripe ended, then in the
        #: whole range (key ``num_shards``): where the next search starts
        self._cursors = [*self.shard_bounds[:-1], base]
        self.allocated_bytes = 0
        #: failpoint plane (set by ObjectStore.attach_faults)
        self.faults: Optional["FailpointRegistry"] = None

    @property
    def free_bytes(self) -> int:
        return self.size - self.allocated_bytes

    def shard_of(self, offset: int) -> int:
        """Which stripe (= submission queue) ``offset`` belongs to."""
        if offset < self.base or offset >= self.base + self.size:
            raise ValueError(f"offset {offset} outside allocator range")
        return bisect.bisect_right(self.shard_bounds, offset) - 1

    def allocate(self, length: int, shard: int | None = None) -> Extent:
        if length <= 0:
            raise ValueError("allocation length must be positive")
        if shard is not None and not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range ({self.num_shards})")
        if self.faults is not None and self.faults.active:
            action = self.faults.fire(fault_names.FP_STORE_ALLOC, length=length)
            if action is not None and action.kind == "fail":
                raise StoreFullError(
                    action.reason or f"injected allocation failure ({length} bytes)"
                )
        extent = None
        if shard is not None and self.num_shards > 1:
            extent = self._next_fit(length, shard)
        # Stripe full or fragmented: the whole range — correctness never
        # depends on stripe placement, only the flush's queue assignment
        # (derived back via shard_of).
        extent = extent or self._next_fit(length, self.num_shards)
        if extent is None:
            raise StoreFullError(
                f"no free extent of {length} bytes ({self.free_bytes} free, fragmented)"
            )
        return extent

    def _next_fit(self, length: int, key: int) -> Optional[Extent]:
        """Carve ``length`` bytes from range ``key`` (a stripe, or
        ``num_shards`` for the whole range): the first free stretch at
        or after the range's cursor, else the first from its start.
        None if no free run in the range fits."""
        if key < self.num_shards:
            lo, hi = self.shard_bounds[key], self.shard_bounds[key + 1]
        else:
            lo, hi = self.base, self.base + self.size
        cursor = self._cursors[key]
        free = self._free
        for begin, stop in ((cursor, hi), (lo, cursor)):
            i = bisect.bisect_left(free, [begin])  # first run from ``begin``
            if i and free[i - 1][1] > begin:
                i -= 1  # the run that holds ``begin``
            for i in range(i, len(free)):
                run = free[i]
                start, end = run
                if start >= stop:
                    break
                cut = max(start, begin)
                if min(end, hi) - cut < length:
                    continue
                if start < cut:
                    run[1] = cut
                    if cut + length < end:
                        free.insert(i + 1, [cut + length, end])
                elif cut + length < end:
                    run[0] = cut + length
                else:
                    del free[i]
                self.allocated_bytes += length
                self._cursors[key] = cut + length
                return Extent(offset=cut, length=length)
        return None

    def _runs_below(self, offset: int) -> int:
        """How many free runs start below ``offset``.  The runs are
        sorted ``[start, end]`` lists, and a one-element probe sorts
        before every run with the same start."""
        return bisect.bisect_left(self._free, [offset])

    def free(self, extent: Extent) -> None:
        if extent.offset < self.base or extent.end > self.base + self.size:
            raise ValueError(f"extent {extent} outside allocator range")
        i = self._runs_below(extent.offset)
        # Overlap checks against neighbours (double free detection).
        if i > 0 and self._free[i - 1][1] > extent.offset:
            raise ValueError(f"double free overlapping {extent}")
        if i < len(self._free) and self._free[i][0] < extent.end:
            raise ValueError(f"double free overlapping {extent}")
        self._free.insert(i, [extent.offset, extent.end])
        self.allocated_bytes -= extent.length
        self._coalesce_around(i)

    def _coalesce_around(self, i: int) -> None:
        # Merge with successor first, then predecessor.
        if i + 1 < len(self._free) and self._free[i][1] == self._free[i + 1][0]:
            self._free[i][1] = self._free[i + 1][1]
            self._free.pop(i + 1)
        if i > 0 and self._free[i - 1][1] == self._free[i][0]:
            self._free[i - 1][1] = self._free[i][1]
            self._free.pop(i)

    def reserve(self, extent: Extent) -> None:
        """Carve a specific extent out of the free list (recovery path:
        the allocator is rebuilt by reserving every extent the snapshot
        directory references)."""
        # The runs are disjoint, so only the last one starting at or
        # before the extent can hold it.
        i = self._runs_below(extent.offset + 1) - 1
        if i < 0 or self._free[i][1] < extent.end:
            raise ValueError(f"extent {extent} is not free (overlap or double reserve)")
        start, end = self._free.pop(i)
        if start < extent.offset:
            self._free.insert(i, [start, extent.offset])
            i += 1
        if extent.end < end:
            self._free.insert(i, [extent.end, end])
        self.allocated_bytes += extent.length

    def free_extents(self) -> list[Extent]:
        """The free list as extents (sorted, disjoint, coalesced)."""
        return [Extent(offset=start, length=end - start)
                for start, end in self._free]

    def allocated_extents(self) -> list[Extent]:
        """Complement of the free list within [base, base+size).

        The allocator's view of what is in use — fsck audits this
        against what the snapshot directory actually references to
        find leaks (allocated, unreferenced) and untracked extents
        (referenced, unallocated).
        """
        out: list[Extent] = []
        pos = self.base
        for start, end in self._free:
            if start > pos:
                out.append(Extent(offset=pos, length=start - pos))
            pos = end
        if pos < self.base + self.size:
            out.append(Extent(offset=pos, length=self.base + self.size - pos))
        return out

    def free_extent_count(self) -> int:
        return len(self._free)

    def check_invariants(self) -> None:
        """Free list must stay sorted, disjoint, in-range, coalesced."""
        prev_end = None
        total_free = 0
        for start, end in self._free:
            assert start < end, "empty free extent"
            assert start >= self.base and end <= self.base + self.size, "out of range"
            if prev_end is not None:
                assert start > prev_end, "free list not sorted/disjoint/coalesced"
            prev_end = end
            total_free += end - start
        assert total_free == self.free_bytes, "accounting mismatch"
