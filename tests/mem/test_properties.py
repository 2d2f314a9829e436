"""Property-based tests (hypothesis) for the VM + COW invariants.

Three load-bearing invariants:

1. **Shared-memory coherence**: under any interleaving of writes and
   checkpoints, every process mapping a shared object reads the same
   bytes.
2. **Checkpoint immutability**: a frozen page's content never changes
   after capture, no matter what the application does next.
3. **Incremental completeness**: overlaying incremental captures onto
   the full base always equals the current live content.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address_space import AddressSpace, MemContext
from repro.mem.cow import AuroraCow
from repro.mem.phys import PhysicalMemory
from repro.sim.clock import SimClock
from repro.units import GIB, PAGE_SIZE

N_PAGES = 8


def make_world():
    mem = MemContext(SimClock(), PhysicalMemory(total_bytes=1 * GIB))
    cow = AuroraCow(mem)
    a = AddressSpace(mem, "a")
    b = AddressSpace(mem, "b")
    entry = a.mmap(N_PAGES * PAGE_SIZE, shared=True, name="shm")
    b.mmap(N_PAGES * PAGE_SIZE, shared=True, obj=entry.obj, addr=entry.start)
    return mem, cow, a, b, entry


#: op = ("write", writer 0/1, page, byte) | ("checkpoint",)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(0, 1),
            st.integers(0, N_PAGES - 1),
            st.integers(0, 255),
        ),
        st.tuples(st.just("checkpoint")),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_shared_memory_coherence_under_checkpoints(ops):
    mem, cow, a, b, entry = make_world()
    spaces = (a, b)
    model = {}  # page -> last byte written
    last_epoch = None
    for op in ops:
        if op[0] == "write":
            _, who, page, value = op
            spaces[who].write(entry.start + page * PAGE_SIZE, bytes([value]))
            model[page] = value
        else:
            since = None if last_epoch is None else last_epoch + 1
            freeze = cow.freeze([entry.obj], incremental_since=since)
            last_epoch = freeze.epoch
    # Coherence: both mappers agree with the model on every page.
    for page, value in model.items():
        addr = entry.start + page * PAGE_SIZE
        assert a.read(addr, 1) == bytes([value])
        assert b.read(addr, 1) == bytes([value])


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_frozen_pages_immutable(ops):
    mem, cow, a, b, entry = make_world()
    spaces = (a, b)
    captured: list[tuple[object, bytes]] = []
    last_epoch = None
    for op in ops:
        if op[0] == "write":
            _, who, page, value = op
            spaces[who].write(entry.start + page * PAGE_SIZE, bytes([value]))
        else:
            since = None if last_epoch is None else last_epoch + 1
            freeze = cow.freeze([entry.obj], incremental_since=since)
            last_epoch = freeze.epoch
            for _obj, _pindex, page in freeze.iter_pages():
                captured.append((page, page.snapshot_payload()))
    for page, content_at_capture in captured:
        assert page.snapshot_payload() == content_at_capture
        assert page.frozen


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_incremental_overlay_equals_live_state(ops):
    mem, cow, a, b, entry = make_world()
    spaces = (a, b)
    # Seed every page so the full capture covers the object.
    for i in range(N_PAGES):
        a.write(entry.start + i * PAGE_SIZE, b"seed%d" % i)
    full = cow.freeze([entry.obj])
    image = {pindex: page.snapshot_payload() for _obj, pindex, page in full.iter_pages()}
    last_epoch = full.epoch
    for op in ops:
        if op[0] == "write":
            _, who, page, value = op
            spaces[who].write(entry.start + page * PAGE_SIZE, bytes([value]))
        else:
            freeze = cow.freeze([entry.obj], incremental_since=last_epoch + 1)
            last_epoch = freeze.epoch
            for _obj, pindex, page in freeze.iter_pages():
                image[pindex] = page.snapshot_payload()
    # Final incremental closes the last interval.
    freeze = cow.freeze([entry.obj], incremental_since=last_epoch + 1)
    for _obj, pindex, page in freeze.iter_pages():
        image[pindex] = page.snapshot_payload()
    for pindex in range(N_PAGES):
        live = a.read(entry.start + pindex * PAGE_SIZE, PAGE_SIZE)
        reconstructed = image[pindex] + bytes(PAGE_SIZE - len(image[pindex]))
        assert live == reconstructed, f"page {pindex} diverged"


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, N_PAGES - 1), st.binary(min_size=1, max_size=32)),
        max_size=30,
    )
)
def test_fork_isolation_property(writes):
    """No interleaving of parent writes leaks into a forked child."""
    mem = MemContext(SimClock(), PhysicalMemory(total_bytes=1 * GIB))
    AuroraCow(mem)
    parent = AddressSpace(mem, "parent")
    entry = parent.mmap(N_PAGES * PAGE_SIZE)
    for i in range(N_PAGES):
        parent.write(entry.start + i * PAGE_SIZE, b"gen0-%d" % i)
    snapshot = {
        i: parent.read(entry.start + i * PAGE_SIZE, 32) for i in range(N_PAGES)
    }
    child = parent.fork()
    for page, data in writes:
        parent.write(entry.start + page * PAGE_SIZE, data)
    for i in range(N_PAGES):
        assert child.read(entry.start + i * PAGE_SIZE, 32) == snapshot[i]


@settings(max_examples=40, deadline=None)
@given(
    frees=st.permutations(list(range(12))),
    sizes=st.lists(st.integers(1, 10_000), min_size=12, max_size=12),
)
def test_allocator_free_in_any_order(frees, sizes):
    """Extent allocator: free in any order restores the full pool."""
    from repro.objstore.alloc import ExtentAllocator

    alloc = ExtentAllocator(base=0, size=1 << 20)
    extents = [alloc.allocate(size) for size in sizes]
    for index in frees:
        alloc.free(extents[index])
        alloc.check_invariants()
    assert alloc.free_bytes == 1 << 20
    assert alloc.free_extent_count() == 1
