"""Extent allocation for the object store.

A first-fit extent allocator with eager coalescing.  The COW layout
never overwrites live data: updates allocate fresh extents and the old
ones are freed *in place* by the garbage collector once no snapshot
references them — "in-place garbage collection without needing to
rewrite incremental checkpoints" (paper §3).
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
    """First-fit allocator over [base, base+size).

    With ``num_shards > 1`` the range is partitioned into that many
    contiguous *stripes*, one per device submission queue.  Allocations
    that name a shard are carved from that shard's stripe when possible
    (falling back to global first-fit under pressure), so a sharded
    checkpoint flush produces per-queue runs that stay contiguous on
    media and coalesce into few large commands.
    """

    def __init__(self, base: int, size: int, num_shards: int = 1):
        if size <= 0:
            raise ValueError("allocator size must be positive")
        if num_shards < 1:
            raise ValueError("allocator needs at least one shard")
        self.base = base
        self.size = size
        self.num_shards = num_shards
        #: stripe boundaries: shard i covers [bounds[i], bounds[i+1])
        self._shard_bounds = [
            base + (size * i) // num_shards for i in range(num_shards + 1)
        ]
        #: sorted, disjoint, coalesced free list of [offset, end) pairs
        self._free: list[list[int]] = [[base, base + size]]
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
        return bisect.bisect_right(self._shard_bounds, offset) - 1

    def allocate(self, length: int, shard: int | None = None) -> Extent:
        if length <= 0:
            raise ValueError("allocation length must be positive")
        if shard is not None and not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range ({self.num_shards})")
        if self.faults is not None:
            action = self.faults.fire(fault_names.FP_STORE_ALLOC, length=length)
            if action is not None and action.kind == "fail":
                raise StoreFullError(
                    action.reason or f"injected allocation failure ({length} bytes)"
                )
        if shard is not None and self.num_shards > 1:
            extent = self._allocate_in_stripe(length, shard)
            if extent is not None:
                return extent
            # Stripe exhausted/fragmented: fall back to global first-fit
            # — correctness never depends on stripe placement, only the
            # flush's queue assignment (derived back via shard_of).
        for i, (start, end) in enumerate(self._free):
            if end - start >= length:
                extent = Extent(offset=start, length=length)
                if end - start == length:
                    self._free.pop(i)
                else:
                    self._free[i][0] = start + length
                self.allocated_bytes += length
                return extent
        raise StoreFullError(
            f"no free extent of {length} bytes ({self.free_bytes} free, fragmented)"
        )

    def _allocate_in_stripe(self, length: int, shard: int) -> Optional[Extent]:
        """First-fit restricted to ``shard``'s stripe; None if no room."""
        lo = self._shard_bounds[shard]
        hi = self._shard_bounds[shard + 1]
        for i, (start, end) in enumerate(self._free):
            if start >= hi:
                break
            cut = max(start, lo)
            if min(end, hi) - cut < length:
                continue
            extent = Extent(offset=cut, length=length)
            self._free.pop(i)
            if start < cut:
                self._free.insert(i, [start, cut])
                i += 1
            if cut + length < end:
                self._free.insert(i, [cut + length, end])
            self.allocated_bytes += length
            return extent
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

    def fragmentation(self) -> float:
        """1 - (largest free run / total free); 0 when unfragmented."""
        if not self._free:
            return 0.0
        largest = max(end - start for start, end in self._free)
        free = self.free_bytes
        return 0.0 if free == 0 else 1.0 - largest / free

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
