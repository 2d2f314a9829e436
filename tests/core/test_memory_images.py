"""Memory-image frame ownership.

A memory image holds a reference only on the frames its own freeze
captured; an incremental reaches the rest of its page map through its
parent, which pruning keeps alive because it deletes whole segments (a
full image plus its incrementals).  A full image cut from a chain also
holds the slots it inherited, i.e. those not resident at its freeze.
These tests pin that no frame leaks and none is freed early across
forced consolidations, and that an incremental costs what it captured.
"""

import random
from types import SimpleNamespace

from repro.core.backends import MemoryBackend
from repro.core.orchestrator import SLS
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.serial.procsnap import group_vm_objects
from repro.units import GIB, PAGE_SIZE

HEAP_PAGES = 16
SCRATCH_PAGES = 2
CHECKPOINTS = 24
#: the scratch region is unmapped right after this checkpoint: after
#: the forced consolidation at 5, before the one at 10
UNMAP_AFTER = 7


def checkpoints():
    """A forked pair sharing a heap, checkpointed to memory with
    retention 4 (so every fifth checkpoint is a forced consolidation)
    and written between checkpoints.  Yields a record per checkpoint,
    taken right after it: the world, the image and the heap bytes each
    process saw at that checkpoint."""
    kernel = Kernel(hostname="memimg", memory_bytes=4 * GIB)
    sls = SLS(kernel)
    root = Syscalls(kernel, kernel.spawn("app"))
    heap = root.mmap(HEAP_PAGES * PAGE_SIZE, name="heap")
    root.populate(heap.start, HEAP_PAGES * PAGE_SIZE,
                  fill_fn=lambda i: b"init-%02d" % i)
    child = Syscalls(kernel, root.fork())
    scratch = root.mmap(SCRATCH_PAGES * PAGE_SIZE, name="scratch")
    for i in range(SCRATCH_PAGES):
        root.poke(scratch.start + i * PAGE_SIZE, b"scratch-%d" % i)
    group = sls.persist(root.proc, name="app")
    group.attach(MemoryBackend("memory"))
    group.retention = 4
    rng = random.Random(7)
    expected = {}
    for n in range(CHECKPOINTS):
        for sysc in (root, child):
            for _ in range(rng.randint(1, 3)):
                page = rng.randrange(HEAP_PAGES)
                sysc.poke(heap.start + page * PAGE_SIZE,
                          b"c%02d-p%02d-%d" % (n, page, sysc.proc.pid))
        image = sls.checkpoint(group)
        expected[image.name] = [read_heap(kernel, sysc.proc, heap)
                                for sysc in (root, child)]
        yield SimpleNamespace(n=n, kernel=kernel, sls=sls, group=group,
                              image=image, heap=heap, scratch=scratch,
                              expected=expected)
        if n == UNMAP_AFTER:
            root.munmap(scratch.start, SCRATCH_PAGES * PAGE_SIZE)


def read_heap(kernel, proc, heap):
    sysc = Syscalls(kernel, proc)
    return [sysc.peek(heap.start + i * PAGE_SIZE, 16) for i in range(HEAP_PAGES)]


def reachable_frames(kernel, group):
    """Distinct frames (by pfn) held by live VM objects or listed by a
    retained image's memory page map."""
    frames = {}
    for obj in group_vm_objects(kernel.procs.all_processes()):
        for page in obj.pages.values():
            frames[page.pfn] = page
    for image in group.images:
        for pages in image.copies["memory"].pages.values():
            for page in pages.values():
                frames[page.pfn] = page
    return frames


def test_the_run_forces_at_least_three_consolidations():
    fulls = [step.n for step in checkpoints() if not step.image.incremental]
    assert fulls == [0, 5, 10, 15, 20]


def test_allocated_frames_are_exactly_the_reachable_ones():
    """No frame leaks and none is freed while something still lists it."""
    for step in checkpoints():
        frames = reachable_frames(step.kernel, step.group)
        assert all(page.refcount > 0 for page in frames.values()), step.n
        assert step.kernel.phys.allocated_frames == len(frames), step.n


def test_the_oldest_retained_incremental_restores_its_bytes():
    restored = 0
    for step in checkpoints():
        oldest = next((i for i in step.group.images if i.incremental), None)
        if oldest is None:
            continue
        procs, _metrics = step.sls.restore(
            oldest, new_instance=True, name_suffix=f"#{step.n}"
        )
        got = [read_heap(step.kernel, proc, step.heap) for proc in procs]
        assert got == step.expected[oldest.name], step.n
        for proc in procs:
            step.kernel.exit(proc)
            step.kernel.reap(proc)
        restored += 1
    assert restored == CHECKPOINTS - 5  # all but the full ones


def test_a_consolidation_keeps_the_frames_of_slots_it_did_not_capture():
    """The scratch region is unmapped after images that list it; the
    next consolidation inherits its slots, and they outlive the pruning
    of every image that captured them."""
    checked = 0
    for step in checkpoints():
        if step.image.incremental or step.n <= UNMAP_AFTER:
            continue
        assert step.group.images == [step.image]  # its parent's segment is gone
        pages = step.image.copies["memory"].pages[step.scratch.obj.oid]
        for pindex in range(SCRATCH_PAGES):
            assert pages[pindex].refcount > 0, step.n
            assert pages[pindex].read(0, 9) == b"scratch-%d" % pindex
        checked += 1
    assert checked == 3


def one_page_incremental_holds(pages):
    """Frames a steady-state 1-page incremental memory checkpoint of a
    ``pages``-page heap holds, counted at ``PhysicalMemory.hold_many``,
    the run entry every frame hold goes through."""
    kernel = Kernel(hostname="memimg", memory_bytes=4 * GIB)
    sls = SLS(kernel)
    sysc = Syscalls(kernel, kernel.spawn("app"))
    heap = sysc.mmap(pages * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, pages * PAGE_SIZE, fill_fn=lambda i: b"page-%d" % i)
    group = sls.persist(sysc.proc, name="app")
    group.attach(MemoryBackend("memory"))
    sls.checkpoint(group)
    sysc.poke(heap.start, b"warm")
    sls.checkpoint(group)
    frames = [0]
    hold_many = kernel.phys.hold_many

    def counting_hold_many(pages):
        frames[0] += len(pages)
        return hold_many(pages)

    kernel.phys.hold_many = counting_hold_many
    sysc.poke(heap.start + PAGE_SIZE, b"dirty")
    image = sls.checkpoint(group)
    assert image.incremental and image.metrics.pages_captured == 1
    return frames[0]


def test_a_one_page_incremental_takes_the_same_holds_at_any_image_size():
    held = one_page_incremental_holds(64)
    assert held > 0
    assert held == one_page_incremental_holds(4096)
