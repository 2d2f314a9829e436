"""A live page record's decoded content exists once on the host.

The page cache bounds *simulated* residency; the dedup entry bounds
host copies.  Every cache-miss decode of a stored page that decodes
equal to the entry's copy hands out that copy, so every world restored
from one image shares the same bytes.  The copy lives and dies with
its entry, and the checked paths (scrub, the media walker, fsck) never
read or set it.
"""

import random
import tracemalloc

import pytest

from repro.cli.recovery import build_demo_store, inject
from repro.core.backends import DiskBackend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.errors import ChecksumError
from repro.hw.nvme import NvmeDevice
from repro.objstore import ObjectStore, Scrubber
from repro.objstore.fsck import check_store, repair_store
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, PAGE_SIZE

PAGES = 256


def image_world(cache_bytes: int):
    """A store holding one checkpoint of a ``PAGES``-page heap of
    incompressible pages; returns the writer's kernel, the store, the
    snapshot and the heap's start address."""
    kernel = Kernel(hostname="writer", memory_bytes=1 * GIB)
    store = ObjectStore(NvmeDevice(kernel.clock), mem=kernel.mem,
                        cache_bytes=cache_bytes)
    backend = DiskBackend("disk0", store)
    backend.bind(kernel)
    rng = random.Random(43)
    heap_pages = [rng.randbytes(PAGE_SIZE) for _ in range(PAGES)]
    sysc = Syscalls(kernel, kernel.spawn("app"))
    heap = sysc.mmap(PAGES * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, PAGES * PAGE_SIZE, fill_fn=heap_pages.__getitem__)
    sls = SLS(kernel)
    group = sls.persist(sysc.proc, name="app")
    group.attach(backend)
    sls.checkpoint(group, name="full")
    sls.barrier(group)
    return kernel, store, store.snapshot_by_name("full"), heap.start


def restore_fresh(kernel, store, snapshot, label, **kwargs):
    """Restore the snapshot into a new kernel on the writer's clock;
    returns that kernel (which keeps the world alive) and the process."""
    fresh = Kernel(hostname=label, memory_bytes=1 * GIB, clock=kernel.clock)
    image = load_image_from_store(store, snapshot, "disk0")
    procs, _ = SLS(fresh).restore(image, backend_name="disk0", store=store,
                                  **kwargs)
    return fresh, procs[0]


def heap_payloads(proc) -> list[bytes]:
    entry = next(e for e in proc.aspace.entries if e.name == "heap")
    return [entry.obj.lookup(entry.offset_pages + i)[0].payload
            for i in range(PAGES)]


class TestRestoredWorldsShare:
    def test_eager_restores_share_payload_objects(self):
        kernel, store, snapshot, heap = image_world(cache_bytes=0)
        _k1, first = restore_fresh(kernel, store, snapshot, "a")
        _k2, second = restore_fresh(kernel, store, snapshot, "b")
        a, b = heap_payloads(first), heap_payloads(second)
        assert all(x is y for x, y in zip(a, b))
        # the shared bytes are the entry's copy of the right content
        for payload in a[:8]:
            assert store.dedup.get(store.page_hash(payload)).content is payload

        # a lazy fault in a third world is served the same object
        k3, lazy = restore_fresh(kernel, store, snapshot, "c",
                                 lazy=True, prefetch="off")
        faulted = Syscalls(k3, lazy).peek(heap + 5 * PAGE_SIZE, PAGE_SIZE)
        assert faulted is a[5]

    def test_shared_copy_never_masks_damage(self):
        device, store, _obs = build_demo_store()
        store.pagecache.resize(0)
        ref = store.load_manifest(store.snapshot_by_name("demo-1")).pages[0]
        content = store.read_page(ref)
        assert store.dedup.get(ref.content_hash).content is content
        inject(device, store, "checksum")  # demo-1's first page record
        with pytest.raises(ChecksumError):
            store.read_page(ref)


class TestCopyLifetime:
    def _warm(self, store, name):
        pages = store.load_manifest(store.snapshot_by_name(name)).pages
        store.read_pages_coalesced(pages)
        assert all(store.dedup.get(r.content_hash).content is not None
                   for r in pages)
        return pages

    def test_checked_paths_neither_read_nor_set_it(self):
        _device, store, _obs = build_demo_store()
        Scrubber(store, batch_extents=8).run()
        assert check_store(store).clean
        assert all(e.content is None for e in store.dedup.entries().values())

    def test_fsck_repair_leaves_none(self):
        device, store, _obs = build_demo_store()
        self._warm(store, "demo-0")
        inject(device, store, "checksum")
        assert repair_store(store).findings  # a repair rebuilds the index
        assert all(e.content is None for e in store.dedup.entries().values())

    def test_snapshot_delete_drops_freed_copies(self):
        _device, store, _obs = build_demo_store()
        pages = self._warm(store, "demo-1")
        store.delete_snapshot(store.snapshot_by_name("demo-1").snap_id)
        assert all(store.dedup.get(r.content_hash) is None for r in pages)

    def test_recover_leaves_none(self):
        _device, store, _obs = build_demo_store()
        self._warm(store, "demo-0")
        store.recover()
        assert all(e.content is None for e in store.dedup.entries().values())

    def test_scrub_finding_drops_the_copy(self):
        device, store, _obs = build_demo_store()
        damaged = self._warm(store, "demo-1")[0]
        inject(device, store, "checksum")  # demo-1's first page record
        assert Scrubber(store, batch_extents=8).run().errors == 1
        assert store.dedup.get(damaged.content_hash).content is None


class TestHostMemoryPin:
    """Restores past the first of one image add worlds, not copies of
    its content: host memory retained from 1 to 4 eager restores grows
    by less than one image's content, with the cache smaller than the
    image so each restore decodes most pages again."""

    def test_more_restores_retain_no_more_content(self):
        kernel, store, snapshot, _heap = image_world(
            cache_bytes=PAGES * PAGE_SIZE // 4)
        worlds = []
        tracemalloc.start()
        try:
            worlds.append(restore_fresh(kernel, store, snapshot, "r0"))
            one, _peak = tracemalloc.get_traced_memory()
            for i in range(1, 4):
                worlds.append(restore_fresh(kernel, store, snapshot, f"r{i}"))
            four, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(worlds) == 4
        assert four - one < PAGES * PAGE_SIZE
