"""Integration: failure injection and swap/checkpoint interplay."""

import pytest

from repro.core.backends import MemoryBackend, make_disk_backend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.errors import CheckpointError
from repro.hw.nvme import NvmeDevice
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, MIB, PAGE_SIZE


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=4 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


class TestBackendFailure:
    def _world(self, kernel, sls):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(64 * PAGE_SIZE, name="heap")
        sys.populate(entry.start, 64 * PAGE_SIZE, fill_fn=lambda i: b"p%d" % i)
        group = sls.persist(proc, name="app")
        return proc, sys, entry, group

    def test_all_backends_failing_raises(self, kernel, sls):
        proc, sys, entry, group = self._world(kernel, sls)
        device = NvmeDevice(kernel.clock)
        backend = make_disk_backend(kernel, device)
        group.attach(backend)
        device.inject_failures(100)
        frames_before = kernel.phys.allocated_frames
        with pytest.raises(CheckpointError):
            sls.checkpoint(group)
        # No leaked checkpoint frame references.
        assert kernel.phys.allocated_frames == frames_before
        # The application is resumed, not wedged.
        assert proc.is_alive()
        sys.poke(entry.start, b"still-writable")

    def test_partial_failure_keeps_healthy_backend(self, kernel, sls):
        proc, sys, entry, group = self._world(kernel, sls)
        bad_device = NvmeDevice(kernel.clock, name="bad")
        group.attach(make_disk_backend(kernel, bad_device, name="bad-disk"))
        group.attach(MemoryBackend("memory"))
        bad_device.inject_failures(100)
        image = sls.checkpoint(group)
        assert image.failed_backends == ["bad-disk"]
        # Durable on the surviving backend alone.
        sls.barrier(group)
        assert image.durable
        assert image.durable_on == {"memory"}
        # And restorable from it.
        procs, _ = sls.restore(image, backend_name="memory",
                               new_instance=True, name_suffix="-r")
        got = Syscalls(kernel, procs[0]).peek(entry.start + PAGE_SIZE, 2)
        assert got == b"p1"

    def test_next_checkpoint_succeeds_after_transient_failure(self, kernel, sls):
        proc, sys, entry, group = self._world(kernel, sls)
        device = NvmeDevice(kernel.clock)
        group.attach(make_disk_backend(kernel, device))
        device.inject_failures(1)
        with pytest.raises(CheckpointError):
            sls.checkpoint(group)
        image = sls.checkpoint(group)  # device healthy again
        sls.barrier(group)
        assert image.durable


class TestSwapCheckpointInterplay:
    def test_swapped_pages_join_the_checkpoint(self, kernel, sls):
        """Paper §3: 'When pages are swapped out due to memory pressure
        they are incorporated into the subsequent checkpoint.'"""
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(16 * PAGE_SIZE, name="heap")
        sys.populate(entry.start, 16 * PAGE_SIZE, fill_fn=lambda i: b"v-%d" % i)
        group = sls.persist(proc, name="app")
        device = NvmeDevice(kernel.clock, name="store-dev")
        group.attach(make_disk_backend(kernel, device))
        # Evict a few pages to swap before the checkpoint.
        for pindex in (2, 5, 9):
            kernel.swap.page_out(entry.obj, pindex)
        assert entry.obj.resident_page(5) is None
        image = sls.checkpoint(group)
        sls.barrier(group)
        # The image covers the swapped pages without faulting them in.
        assert entry.obj.resident_page(5) is None
        refs = image.copies["disk0"].pages[entry.obj.oid]
        assert {2, 5, 9} <= set(refs)
        # Restore sees their content.
        procs, _ = sls.restore(image, backend_name="disk0",
                               new_instance=True, name_suffix="-r")
        got = Syscalls(kernel, procs[0]).peek(
            entry.start + 5 * PAGE_SIZE, 3
        )
        assert got == b"v-5"

    def test_object_with_only_swapped_dirty_pages(self, kernel, sls):
        """Even when every dirty page of an interval was evicted, the
        incremental checkpoint still captures it from swap."""
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(8 * PAGE_SIZE, name="heap")
        sys.populate(entry.start, 8 * PAGE_SIZE, fill=b"base")
        group = sls.persist(proc, name="app")
        group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
        sls.checkpoint(group)
        sys.poke(entry.start + 3 * PAGE_SIZE, b"dirty-then-evicted")
        kernel.swap.page_out(entry.obj, 3)
        image = sls.checkpoint(group)
        sls.barrier(group)
        procs, _ = sls.restore(image, backend_name="disk0",
                               new_instance=True, name_suffix="-r")
        got = Syscalls(kernel, procs[0]).peek(
            entry.start + 3 * PAGE_SIZE, 18
        )
        assert got == b"dirty-then-evicted"


class TestRebootImageLoader:
    def test_load_image_from_store_unit(self, kernel, sls):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(8 * PAGE_SIZE, name="heap")
        sys.populate(entry.start, 8 * PAGE_SIZE, fill_fn=lambda i: b"x%d" % i)
        group = sls.persist(proc, name="app")
        backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
        group.attach(backend)
        sls.checkpoint(group)
        sys.poke(entry.start, b"delta")
        image = sls.checkpoint(group)
        sls.barrier(group)
        store = backend.store
        rebuilt = load_image_from_store(
            store, store.snapshot_by_name(image.name)
        )
        # The rebuilt page map matches the in-memory one.
        live = image.copies["disk0"].pages
        assert set(rebuilt.copies["disk0"].pages) == set(live)
        for oid in live:
            assert set(rebuilt.copies["disk0"].pages[oid]) == set(live[oid])
        # And the metadata parses to the same process set.
        assert rebuilt.meta["procs"][0]["pid"] == proc.pid
