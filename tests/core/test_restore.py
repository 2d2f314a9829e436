"""Tests for the restore engine: memory/disk backends, lazy paging."""

import pytest

from repro.core.backends import MemoryBackend, make_disk_backend
from repro.core.orchestrator import SLS
from repro.errors import ChecksumError, RestoreError
from repro.hw.device import StorageDevice
from repro.hw.nvme import NvmeDevice
from repro.objstore.codec import MAX_DELTA_CHAIN, BrokenDeltaBase
from repro.objstore.record import ENC_DELTA
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.process import ProcessState
from repro.posix.syscalls import Syscalls
from repro.units import GIB, MIB, PAGE_SIZE


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=8 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


@pytest.fixture
def world(kernel, sls):
    """App with both memory and disk backends, one checkpoint taken."""
    proc = kernel.spawn("app")
    sys = Syscalls(kernel, proc)
    entry = sys.mmap(1 * MIB, name="heap")
    sys.populate(entry.start, 1 * MIB, fill_fn=lambda i: b"content-%d" % i)
    group = sls.persist(proc, name="app")
    group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
    group.attach(MemoryBackend("memory"))
    image = sls.checkpoint(group)
    sls.barrier(group)
    return proc, sys, entry, group, image


class TestMemoryRestore:
    def test_content_identical(self, world, sls, kernel):
        _, _, entry, _, image = world
        procs, metrics = sls.restore(
            image, backend_name="memory", new_instance=True, name_suffix="-m"
        )
        rsys = Syscalls(kernel, procs[0])
        assert rsys.peek(entry.start + 7 * PAGE_SIZE, 9) == b"content-7"
        assert metrics.backend == "memory"
        assert metrics.objstore_read_ns == 0

    def test_no_pages_copied(self, world, sls, kernel):
        """'No memory is copied, since Aurora uses COW semantics to
        share pages between the image and the running application.'"""
        _, _, _, _, image = world
        allocs_before = kernel.phys.total_allocations
        sls.restore(image, backend_name="memory", new_instance=True,
                    name_suffix="-m")
        assert kernel.phys.total_allocations == allocs_before

    def test_write_isolation_via_cow(self, world, sls, kernel):
        proc, sys, entry, _, image = world
        procs, _ = sls.restore(
            image, backend_name="memory", new_instance=True, name_suffix="-m"
        )
        rsys = Syscalls(kernel, procs[0])
        rsys.poke(entry.start, b"CLONE-WRITE")
        assert sys.peek(entry.start, 9) == b"content-0"
        assert rsys.peek(entry.start, 11) == b"CLONE-WRITE"

    def test_original_write_does_not_leak_into_clone(self, world, sls, kernel):
        proc, sys, entry, group, image = world
        sys.poke(entry.start, b"ORIGINAL-MOVES-ON")
        procs, _ = sls.restore(
            image, backend_name="memory", new_instance=True, name_suffix="-m"
        )
        rsys = Syscalls(kernel, procs[0])
        assert rsys.peek(entry.start, 9) == b"content-0"

    def test_restored_threads_running(self, world, sls):
        _, _, _, _, image = world
        procs, _ = sls.restore(image, backend_name="memory",
                               new_instance=True, name_suffix="-m")
        assert procs[0].state is ProcessState.ALIVE


class TestRestoredInstanceExit:
    """A restored instance owns its VM objects only through its map
    entries: once it exits and is reaped, every frame it allocated —
    COW copies of shared pages, pages read from the store — is free."""

    @pytest.mark.parametrize("backend", ["memory", "disk0"])
    def test_exit_frees_every_frame(self, world, sls, kernel, backend):
        _, _, entry, _, image = world
        frames_before = kernel.phys.allocated_frames
        procs, _ = sls.restore(
            image, backend_name=backend, new_instance=True, name_suffix="-x"
        )
        rsys = Syscalls(kernel, procs[0])
        rsys.poke(entry.start + 3 * PAGE_SIZE, b"instance-write")
        assert kernel.phys.allocated_frames > frames_before
        for proc in procs:
            kernel.exit(proc)
            kernel.reap(proc)
        assert kernel.phys.allocated_frames == frames_before


class TestDiskRestore:
    def test_eager_reads_everything(self, world, sls, kernel):
        _, _, entry, _, image = world
        procs, metrics = sls.restore(
            image, backend_name="disk0", new_instance=True, name_suffix="-d"
        )
        assert metrics.objstore_read_ns > 0
        assert metrics.pages_installed >= 256
        rsys = Syscalls(kernel, procs[0])
        assert rsys.peek(entry.start + 99 * PAGE_SIZE, 10) == b"content-99"

    def test_phase_order_read_then_metadata_then_memory(self, world, sls):
        _, _, _, _, image = world
        _, metrics = sls.restore(
            image, backend_name="disk0", new_instance=True, name_suffix="-d"
        )
        assert metrics.total_ns == (
            metrics.objstore_read_ns + metrics.metadata_ns + metrics.memory_ns
        )

    def test_unknown_backend_rejected(self, world, sls):
        _, _, _, _, image = world
        with pytest.raises(RestoreError):
            sls.restore(image, backend_name="nope")

    def test_crash_then_restore_from_disk(self, kernel, sls):
        """Full crash flow: disk image survives, memory image does not."""
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(256 * PAGE_SIZE, name="heap")
        sys.populate(entry.start, 256 * PAGE_SIZE, fill=b"precious")
        group = sls.persist(proc, name="app")
        backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
        group.attach(backend)
        image = sls.checkpoint(group)
        sls.barrier(group)
        # Simulate a machine crash: kill the app; disk survives.
        kernel.exit(proc)
        kernel.reap(proc)
        procs, _ = sls.restore(image, backend_name="disk0")
        rsys = Syscalls(kernel, procs[0])
        assert rsys.peek(entry.start, 8) == b"precious"
        assert procs[0].pid == proc.pid  # original PID reclaimed


class TestEagerRestoreReadsInWaves:
    """An eager restore of an incremental image reads the delta bases
    its pages need as coalesced waves behind the requested records:
    the decode makes no point read."""

    PAGES = 64

    @pytest.fixture
    def chains(self, kernel, sls):
        """Even pages patched in three incrementals (delta chains of
        depth 3) on a qd8 x 4 device, which arms the codec; returns the
        images, the expected final contents and the store."""
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(self.PAGES * PAGE_SIZE, name="heap")
        model = [(b"page-%03d " % i) * 400 for i in range(self.PAGES)]
        sys.populate(entry.start, self.PAGES * PAGE_SIZE, fill_fn=model.__getitem__)
        group = sls.persist(proc, name="app")
        backend = make_disk_backend(
            kernel, NvmeDevice(kernel.clock, queue_depth=8, num_queues=4)
        )
        group.attach(backend)
        images = [sls.checkpoint(group)]
        sls.barrier(group)
        for rnd in range(3):
            data, offset = b"r%d" % rnd, 64 * (rnd + 1)
            for page in range(0, self.PAGES, 2):
                sys.poke(entry.start + page * PAGE_SIZE + offset, data)
                model[page] = (model[page][:offset] + data
                               + model[page][offset + len(data):])
            images.append(sls.checkpoint(group))
            sls.barrier(group)
        assert backend.store.stats.pages_delta == 3 * self.PAGES // 2
        return entry, images, model, backend.store

    def test_bases_come_in_waves_not_point_reads(self, chains, sls, kernel,
                                                 monkeypatch):
        entry, images, model, store = chains
        # Warm the cache with the first incremental's pages and their
        # bases, so some bases the eager restore needs are cache hits.
        lazy, _ = sls.restore(images[1], backend_name="disk0", lazy=True,
                              prefetch="off", new_instance=True, name_suffix="-l")
        for page in range(10):
            Syscalls(kernel, lazy[0]).peek(entry.start + page * PAGE_SIZE, PAGE_SIZE)
        page_offsets = {e.extent.offset for e in store.dedup.entries().values()}
        point_reads, async_reads, waves = [], [], []

        def spy(calls, real):
            def call(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(StorageDevice, "read", spy(point_reads, StorageDevice.read))
        monkeypatch.setattr(StorageDevice, "read_async",
                            spy(async_reads, StorageDevice.read_async))
        monkeypatch.setattr(store, "_read_wave", spy(waves, store._read_wave))
        hits, misses = store.pagecache.hits, store.pagecache.misses

        procs, _ = sls.restore(images[-1], backend_name="disk0",
                               new_instance=True, name_suffix="-e")

        assert not [args for args in point_reads if args[1] in page_offsets]
        # the requested records, then one wave per hop of the chains
        assert len(waves) == 4
        assert len(waves) <= MAX_DELTA_CHAIN + 1
        assert len(async_reads) >= len(waves)
        # the counts of the point read per base that waves replaced
        assert (store.pagecache.hits - hits, store.pagecache.misses - misses) == (10, 145)
        peek = Syscalls(kernel, procs[0]).peek
        got = [peek(entry.start + page * PAGE_SIZE, PAGE_SIZE)
               for page in range(self.PAGES)]
        assert got == [m + bytes(PAGE_SIZE - len(m)) for m in model]

    def test_damaged_base_fails_on_its_delta(self, chains, sls):
        """A base record read in a wave that fails its checksum is
        reported on the delta that needs it, as a point read did."""
        entry, images, model, store = chains
        # page 0 as the full checkpoint wrote it: the root of a chain
        # the last image reaches only through three deltas
        root = store.dedup.get(ObjectStore.page_hash((b"page-000 ") * 400))
        assert root is not None and root.ref.flags != ENC_DELTA
        store.device.flip(root.extent.offset + 40)

        with pytest.raises(BrokenDeltaBase) as info:
            sls.restore(images[-1], backend_name="disk0",
                        new_instance=True, name_suffix="-e")
        assert info.value.base_hash == root.ref.content_hash
        assert isinstance(info.value.__cause__, ChecksumError)


class TestLazyRestore:
    def test_lazy_installs_fewer_pages(self, world, sls):
        _, _, _, _, image = world
        _, eager = sls.restore(image, backend_name="disk0",
                               new_instance=True, name_suffix="-e")
        _, lazy = sls.restore(image, backend_name="disk0", lazy=True,
                              new_instance=True, name_suffix="-l")
        assert lazy.pages_installed < eager.pages_installed
        assert lazy.pages_lazy > 0

    def test_lazy_faults_content_on_demand(self, world, sls, kernel):
        _, _, entry, _, image = world
        procs, _ = sls.restore(
            image, backend_name="disk0", lazy=True, prefetch="off",
            new_instance=True, name_suffix="-l",
        )
        rsys = Syscalls(kernel, procs[0])
        faults_before = kernel.mem.stats.pager_in
        assert rsys.peek(entry.start + 123 * PAGE_SIZE, 11) == b"content-123"
        assert kernel.mem.stats.pager_in > faults_before

    def test_lazy_restore_latency_lower(self, world, sls):
        _, _, _, _, image = world
        _, eager = sls.restore(image, backend_name="disk0",
                               new_instance=True, name_suffix="-e2")
        _, lazy = sls.restore(image, backend_name="disk0", lazy=True,
                              prefetch="off",
                              new_instance=True, name_suffix="-l2")
        assert lazy.total_ns < eager.total_ns

    def test_hot_prefetch_reduces_first_touch_faults(self, kernel, sls):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(128 * PAGE_SIZE, name="heap")
        sys.populate(entry.start, 128 * PAGE_SIZE, fill_fn=lambda i: b"p%d" % i)
        group = sls.persist(proc)
        group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
        sls.checkpoint(group)
        # Dirty a hot set; the incremental captures exactly those.
        for i in range(8):
            sys.poke(entry.start + i * PAGE_SIZE, b"hot%d" % i)
        image = sls.checkpoint(group)
        sls.barrier(group)
        procs, metrics = sls.restore(
            image, backend_name="disk0", lazy=True, prefetch="hot",
            new_instance=True, name_suffix="-hot",
        )
        rsys = Syscalls(kernel, procs[0])
        faults_before = kernel.mem.stats.pager_in
        for i in range(8):
            rsys.peek(entry.start + i * PAGE_SIZE, 4)
        # Hot pages were prefetched: no pager activity on first touch.
        assert kernel.mem.stats.pager_in == faults_before
        assert metrics.pages_installed >= 8


class TestScaleOut:
    def test_many_instances_from_one_image(self, world, sls, kernel):
        _, _, entry, _, image = world
        pids = set()
        for i in range(5):
            procs, _ = sls.restore(
                image, backend_name="memory", new_instance=True,
                name_suffix=f"-i{i}",
            )
            pids.add(procs[0].pid)
            rsys = Syscalls(kernel, procs[0])
            assert rsys.peek(entry.start, 9) == b"content-0"
        assert len(pids) == 5

    def test_instances_isolated_from_each_other(self, world, sls, kernel):
        _, _, entry, _, image = world
        a, _ = sls.restore(image, backend_name="memory",
                           new_instance=True, name_suffix="-a")
        b, _ = sls.restore(image, backend_name="memory",
                           new_instance=True, name_suffix="-b")
        Syscalls(kernel, a[0]).poke(entry.start, b"AAAA")
        assert Syscalls(kernel, b[0]).peek(entry.start, 9) == b"content-0"
