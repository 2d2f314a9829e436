"""Unit tests for the extent allocator."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreFullError
from repro.objstore.alloc import Extent, ExtentAllocator


@pytest.fixture
def alloc():
    return ExtentAllocator(base=1000, size=10_000)


class TestAllocate:
    def test_first_fit_from_base(self, alloc):
        extent = alloc.allocate(100)
        assert extent.offset == 1000
        assert extent.length == 100

    def test_sequential_allocations_adjacent(self, alloc):
        a = alloc.allocate(100)
        b = alloc.allocate(50)
        assert b.offset == a.end

    def test_accounting(self, alloc):
        alloc.allocate(100)
        assert alloc.allocated_bytes == 100
        assert alloc.free_bytes == 9_900

    def test_exhaustion(self, alloc):
        alloc.allocate(10_000)
        with pytest.raises(StoreFullError):
            alloc.allocate(1)

    def test_fragmentation_blocks_large_alloc(self, alloc):
        extents = [alloc.allocate(1000) for _ in range(10)]
        for extent in extents[::2]:
            alloc.free(extent)
        assert alloc.free_bytes == 5000
        with pytest.raises(StoreFullError):
            alloc.allocate(2000)

    def test_invalid_length(self, alloc):
        with pytest.raises(ValueError):
            alloc.allocate(0)


class TestFree:
    def test_free_makes_space_reusable(self, alloc):
        extent = alloc.allocate(10_000)
        alloc.free(extent)
        assert alloc.allocate(10_000).offset == 1000

    def test_coalesce_with_both_neighbours(self, alloc):
        a = alloc.allocate(100)
        b = alloc.allocate(100)
        c = alloc.allocate(100)
        alloc.free(a)
        alloc.free(c)
        alloc.free(b)
        alloc.check_invariants()
        assert alloc.free_extent_count() == 1

    def test_double_free_detected(self, alloc):
        extent = alloc.allocate(100)
        alloc.free(extent)
        with pytest.raises(ValueError):
            alloc.free(extent)

    def test_overlapping_free_detected(self, alloc):
        extent = alloc.allocate(100)
        alloc.free(extent)
        with pytest.raises(ValueError):
            alloc.free(Extent(extent.offset + 10, 20))

    def test_out_of_range_free_rejected(self, alloc):
        with pytest.raises(ValueError):
            alloc.free(Extent(0, 100))


class TestReserve:
    def test_reserve_specific_extent(self, alloc):
        alloc.reserve(Extent(5000, 200))
        assert alloc.allocated_bytes == 200
        # New allocation avoids the reserved range.
        for _ in range(5):
            extent = alloc.allocate(1000)
            assert extent.end <= 5000 or extent.offset >= 5200

    def test_reserve_conflict_detected(self, alloc):
        alloc.reserve(Extent(5000, 200))
        with pytest.raises(ValueError):
            alloc.reserve(Extent(5100, 200))

    def test_reserve_then_free_restores(self, alloc):
        extent = Extent(5000, 200)
        alloc.reserve(extent)
        alloc.free(extent)
        alloc.check_invariants()
        assert alloc.free_bytes == 10_000

    def test_reserve_at_edges(self, alloc):
        alloc.reserve(Extent(1000, 100))     # exact start
        alloc.reserve(Extent(10_900, 100))   # exact end
        alloc.check_invariants()


class TestFragmentationMetric:
    def test_zero_when_unfragmented(self, alloc):
        assert alloc.fragmentation() == 0.0

    def test_grows_with_holes(self, alloc):
        extents = [alloc.allocate(1000) for _ in range(10)]
        for extent in extents[1::2]:
            alloc.free(extent)
        assert 0.0 < alloc.fragmentation() < 1.0


class LinearAllocator(ExtentAllocator):
    """The oracle: ``free`` and ``reserve`` as they were before they
    bisected the free list — a fresh ``starts`` list per free, a scan
    from the first run per reserve."""

    def free(self, extent):
        if extent.offset < self.base or extent.end > self.base + self.size:
            raise ValueError(f"extent {extent} outside allocator range")
        starts = [f[0] for f in self._free]
        i = bisect.bisect_left(starts, extent.offset)
        if i > 0 and self._free[i - 1][1] > extent.offset:
            raise ValueError(f"double free overlapping {extent}")
        if i < len(self._free) and self._free[i][0] < extent.end:
            raise ValueError(f"double free overlapping {extent}")
        self._free.insert(i, [extent.offset, extent.end])
        self.allocated_bytes -= extent.length
        self._coalesce_around(i)

    def reserve(self, extent):
        for i, (start, end) in enumerate(self._free):
            if start <= extent.offset and extent.end <= end:
                self._free.pop(i)
                if start < extent.offset:
                    self._free.insert(i, [start, extent.offset])
                    i += 1
                if extent.end < end:
                    self._free.insert(i, [extent.end, end])
                self.allocated_bytes += extent.length
                return
        raise ValueError(f"extent {extent} is not free (overlap or double reserve)")


# a small range, so that arbitrary extents often land on a run's edge,
# straddle two runs, or hit something already allocated; one word past
# each end, so that out-of-range frees are drawn too
_extents = st.builds(Extent, st.integers(60, 330), st.integers(1, 48))
_steps = st.one_of(
    st.tuples(st.just("allocate"), st.integers(1, 48), st.sampled_from([None, 0, 1, 2])),
    st.tuples(st.just("reserve"), _extents),
    st.tuples(st.just("free"), _extents),
    # free something the allocator really handed out (by position)
    st.tuples(st.just("release"), st.integers(0, 1 << 16)),
    # reserve at or just past the start of a free run (by position)
    st.tuples(st.just("carve"), st.integers(0, 1 << 16), st.integers(0, 4), st.integers(1, 48)),
)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_steps, max_size=60))
def test_bisected_free_and_reserve_match_the_linear_search(steps):
    pair = [cls(base=64, size=256, num_shards=3) for cls in (ExtentAllocator, LinearAllocator)]
    live: list[Extent] = []
    for step in steps:
        if step[0] == "release":
            if not live:
                continue
            step = ("free", live[step[1] % len(live)])
        elif step[0] == "carve":
            runs = pair[0].free_extents()
            if not runs:
                continue
            step = ("reserve", Extent(runs[step[1] % len(runs)].offset + step[2], step[3]))
        outcomes = []
        for alloc in pair:
            try:
                outcomes.append(getattr(alloc, step[0])(*step[1:]))
            except (ValueError, StoreFullError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], step
        if step[0] == "free" and outcomes[0] is None:
            # an arbitrary free may have released part of a live extent
            live = [e for e in live if e.end <= step[1].offset or step[1].end <= e.offset]
        elif isinstance(outcomes[0], Extent):
            live.append(outcomes[0])
        elif step[0] == "reserve" and outcomes[0] is None:
            live.append(step[1])
        pair[0].check_invariants()
        assert pair[0].free_extents() == pair[1].free_extents()
        assert pair[0].allocated_bytes == pair[1].allocated_bytes
