"""Slot maps are shared values, not per-image copies.

A per-object slot map is immutable once an image holds it.  An object a
freeze did not touch keeps its parent's map object; a touched one gets
a new map, the parent's overlaid with the new refs; and every new map
goes through the store's content table, so images whose maps for an
object are equal — every function's runtime objects — hold one map.
Swapped-out pages a freeze captures make a new map too: no map an
earlier image or a sibling holds ever changes.
"""

import inspect
import tracemalloc
import weakref

import pytest

from repro.apps.hello import HelloWorldApp
from repro.apps.serverless import ServerlessManager
from repro.core.backends import DiskBackend, MemoryBackend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.hw.nvme import NvmeDevice
from repro.objstore import ObjectStore
from repro.objstore.image import SlotMap, SlotMapTable, overlay, overlay_maps
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.serial.memsnap import capture_pages_to_store, capture_swapped_to_store
from repro.units import GIB, PAGE_SIZE

#: a page's first bytes as HelloWorldApp's runtime initialises its heap
RUNTIME = b"runtime-init-%d"


def store_world():
    kernel = Kernel(memory_bytes=4 * GIB)
    store = ObjectStore(NvmeDevice(kernel.clock), mem=kernel.mem)
    backend = DiskBackend("disk0", store)
    backend.bind(kernel)
    return kernel, store, backend, SLS(kernel)


def boot_function(kernel, sls, backend, name):
    """A function's runtime booted in its own container and group, kept
    running (a deploy would exit it) so the group can checkpoint on."""
    container = kernel.create_container(f"fn-{name}")
    app = HelloWorldApp(kernel, container=container, name=f"fn-{name}")
    app.initialize()
    group = sls.persist(container, name=name)
    group.attach(backend)
    return app, group


def objects(app) -> dict:
    """The app's VM objects by segment name."""
    return {entry.name: entry.obj for entry in app.proc.aspace.entries}


def entries(image) -> dict:
    """An image's slot maps, entry for entry, as plain dicts."""
    return {oid: dict(slots) for oid, slots in image.copies["disk0"].pages.items()}


class TestSwappedPagesNeverAlias:
    def test_chain_with_swapped_dirty_pages(self):
        kernel, store, backend, sls = store_world()
        a, group_a = boot_function(kernel, sls, backend, "a")
        b, group_b = boot_function(kernel, sls, backend, "b")
        obj_a, obj_b = objects(a), objects(b)
        heap_a, data_a = a.entry("heap"), a.entry("data")
        data0 = a.sys.peek(data_a.start, 12)

        a0 = sls.checkpoint(group_a)
        b0 = sls.checkpoint(group_b)
        sls.barrier(group_a)
        sls.barrier(group_b)
        # the runtime objects of the two functions hold one map each
        for segment in ("heap", "text", "data", "libc", "stack"):
            assert (a0.copies["disk0"].pages[obj_a[segment].oid]
                    is b0.copies["disk0"].pages[obj_b[segment].oid]), segment
        before = {"a0": entries(a0), "b0": entries(b0)}

        # 1: a heap page dirtied, then swapped out — the heap's map is
        # a0's, which is b0's
        a.sys.poke(heap_a.start + 3 * PAGE_SIZE, b"swapped-3")
        kernel.swap.page_out(heap_a.obj, 3)
        a1 = sls.checkpoint(group_a)
        sls.barrier(group_a)
        assert a1.incremental
        assert entries(a0) == before["a0"] and entries(b0) == before["b0"]
        assert a1.copies["disk0"].pages[heap_a.obj.oid][3] is not \
            a0.copies["disk0"].pages[heap_a.obj.oid][3]
        before["a1"] = entries(a1)

        # 2: the heap gets a resident dirty page *and* a swapped one (the
        # run's new map must not take the swapped ref in place), and a
        # data page — data's map still b0's — is dirtied and swapped out
        a.sys.poke(heap_a.start + 5 * PAGE_SIZE, b"resident-5")
        a.sys.poke(heap_a.start + 7 * PAGE_SIZE, b"swapped-7")
        kernel.swap.page_out(heap_a.obj, 7)
        a.sys.poke(data_a.start, b"swapped-data")
        kernel.swap.page_out(data_a.obj, 0)
        a2 = sls.checkpoint(group_a)
        sls.barrier(group_a)
        assert a2.incremental

        # every earlier image's and the sibling's maps are unchanged
        for name, image in (("a0", a0), ("b0", b0), ("a1", a1)):
            assert entries(image) == before[name], name
        # an object no freeze touched keeps its parent's map object
        for parent, child in ((a0, a1), (a1, a2)):
            for segment in ("text", "libc", "stack"):
                oid = obj_a[segment].oid
                assert (child.copies["disk0"].pages[oid]
                        is parent.copies["disk0"].pages[oid]), segment
        pages = a2.copies["disk0"].pages
        assert {3, 5, 7} <= set(pages[heap_a.obj.oid])
        assert type(pages[data_a.obj.oid]) is SlotMap
        with pytest.raises(TypeError):
            pages[heap_a.obj.oid][0] = pages[heap_a.obj.oid][1]

        # restores of every image read the right bytes
        expected = [
            (a0, {("heap", 3): RUNTIME % 3, ("heap", 5): RUNTIME % 5,
                  ("heap", 7): RUNTIME % 7, ("data", 0): data0}),
            (b0, {("heap", 3): RUNTIME % 3, ("data", 0): data0}),
            (a1, {("heap", 3): b"swapped-3", ("heap", 5): RUNTIME % 5,
                  ("heap", 7): RUNTIME % 7, ("data", 0): data0}),
            (a2, {("heap", 3): b"swapped-3", ("heap", 5): b"resident-5",
                  ("heap", 7): b"swapped-7", ("data", 0): b"swapped-data"}),
        ]
        for index, (image, want) in enumerate(expected):
            procs, _ = sls.restore(image, backend_name="disk0",
                                   new_instance=True, name_suffix=f"#{index}")
            restored = Syscalls(kernel, procs[0])
            layout = {e.name: e.start for e in procs[0].aspace.entries}
            for (segment, pindex), content in want.items():
                got = restored.peek(layout[segment] + pindex * PAGE_SIZE,
                                    len(content))
                assert got == content, (image.name, segment, pindex)

    def test_swap_capture_builds_a_new_map(self):
        """``capture_swapped_to_store`` on a map whose slot maps another
        image holds replaces them; it writes into none."""
        kernel, store, backend, sls = store_world()
        a, group = boot_function(kernel, sls, backend, "a")
        parent = sls.checkpoint(group)
        sls.barrier(group)
        heap = a.entry("heap").obj
        held = parent.copies["disk0"].pages
        frozen = entries(parent)
        a.sys.poke(a.entry("heap").start + 2 * PAGE_SIZE, b"new content")
        kernel.swap.page_out(heap, 2)
        page_map = dict(held)
        refs = capture_swapped_to_store([heap], store, kernel.swap, page_map,
                                        force={(heap.oid, 2)})
        assert len(refs) == 1
        assert page_map[heap.oid] is not held[heap.oid]
        assert page_map[heap.oid][2] is refs[0]
        assert entries(parent) == frozen


class TestSharedByContent:
    def test_table_returns_the_live_equal_map(self):
        table = SlotMapTable()
        _kernel, store, _backend, _sls = store_world()
        refs = [store.write_page(b"page-%d" % i) for i in range(4)]
        first = table.share(dict(enumerate(refs)))
        assert table.share(dict(enumerate(refs))) is first
        # other content, or the same rows in another order: a new map
        assert table.share(dict(enumerate(refs[:3]))) is not first
        reordered = dict(reversed(list(enumerate(refs))))
        assert table.share(reordered) is not first
        assert list(table.share(reordered)) == [3, 2, 1, 0]

    def test_table_is_weak(self):
        table = SlotMapTable()
        _kernel, store, _backend, _sls = store_world()
        slots = {0: store.write_page(b"only")}
        first = table.share(slots)
        witness = weakref.ref(first)
        del first
        assert witness() is None
        # the dead map's entry is gone: the next equal map takes its place
        again = table.share(slots)
        assert again == slots and table.share(dict(slots)) is again

    def test_overlay_leaves_its_parent(self):
        parent = overlay(None, {0: "a", 1: "b"})
        child = overlay(parent, {1: "B", 2: "c"})
        assert parent == {0: "a", 1: "b"}
        assert list(child.items()) == [(0, "a"), (1, "B"), (2, "c")]
        page_map = overlay_maps({7: parent, 8: parent}, {8: {0: "z"}})
        assert page_map[7] is parent and page_map[8] == {0: "z", 1: "b"}

    def test_a_post_reboot_load_shares_the_live_maps(self):
        kernel, store, backend, sls = store_world()
        a, group = boot_function(kernel, sls, backend, "a")
        image = sls.checkpoint(group)
        sls.barrier(group)
        loaded = load_image_from_store(
            store, store.snapshot_by_name(image.name))
        live, rebuilt = image.copies["disk0"].pages, loaded.copies["disk0"].pages
        assert rebuilt.keys() == live.keys()
        assert all(rebuilt[oid] is live[oid] for oid in live)

    def test_memory_images_share_untouched_maps(self):
        kernel, _store, _backend, sls = store_world()
        a, group = boot_function(kernel, sls, MemoryBackend("memory"), "a")
        parent = sls.checkpoint(group)
        a.sys.poke(a.entry("heap").start, b"dirty")
        child = sls.checkpoint(group)
        heap, stack = a.entry("heap").obj.oid, a.entry("stack").obj.oid
        old, new = parent.copies["memory"].pages, child.copies["memory"].pages
        assert new[stack] is old[stack]
        assert new[heap] is not old[heap]
        assert new[heap][0] is not old[heap][0]
        assert new[heap][1] is old[heap][1]


#: the code that builds and keeps slot maps (the weak table's entries
#: are allocated in the standard library's weakref module)
SLOT_MAP_CODE = (capture_pages_to_store, capture_swapped_to_store, overlay,
                 overlay_maps, SlotMapTable.share)


def slot_map_bytes(snapshot: tracemalloc.Snapshot) -> int:
    """Bytes live in ``snapshot`` that slot-map code allocated."""
    spans: dict[str, list[range]] = {}
    for function in SLOT_MAP_CODE:
        lines, start = inspect.getsourcelines(function)
        spans.setdefault(inspect.getsourcefile(function), []).append(
            range(start, start + len(lines)))
    total = 0
    for trace in snapshot.traces:
        frame = trace.traceback[0]
        if frame.filename == weakref.__file__ or any(
                frame.lineno in span for span in spans.get(frame.filename, ())):
            total += trace.size
    return total


class TestHostBytesPerFunction:
    """A deployed bare-runtime function is a delta of nothing over the
    runtime: the slot maps it adds are its outer map only, every
    object's map being the runtime's.  From 10 to 40 deploys the host
    bytes slot maps retain grow by under 2 KiB a function (a full copy
    of the runtime's maps is about 10 KB)."""

    def test_slot_map_bytes_per_deployed_function(self):
        kernel, _store, backend, sls = store_world()
        manager = ServerlessManager(sls, backend=backend)
        manager.deploy("runtime")
        tracemalloc.start()
        try:
            for index in range(10):
                manager.deploy(f"fn-{index}")
            ten = slot_map_bytes(tracemalloc.take_snapshot())
            for index in range(10, 40):
                manager.deploy(f"fn-{index}")
            forty = slot_map_bytes(tracemalloc.take_snapshot())
        finally:
            tracemalloc.stop()
        assert len(manager.functions) == 41
        assert (forty - ten) / 30 < 2 * 1024
