"""Checkpoint pipelining: COW capture of N overlaps the flush of N-1."""

import pytest

from repro.core.backends import StoreBackend
from repro.core.orchestrator import SLS
from repro.hw.nvme import NvmeDevice
from repro.obs import names as obs_names
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, MIB, PAGE_SIZE


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=8 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


def make_world(kernel, sls, queue_depth=8):
    proc = kernel.spawn("app")
    sysc = Syscalls(kernel, proc)
    heap = sysc.mmap(2 * MIB, name="heap")
    sysc.populate(heap.start, 2 * MIB, fill_fn=lambda i: b"pipe%d" % i)
    group = sls.persist(proc, name="app")
    device = NvmeDevice(kernel.clock, queue_depth=queue_depth)
    backend = StoreBackend("disk0", ObjectStore(device, mem=kernel.mem))
    backend.bind(kernel)
    group.attach(backend)
    return proc, sysc, heap, group, backend


class TestPipelining:
    def test_back_to_back_checkpoints_overlap(self, kernel, sls):
        proc, sysc, heap, group, backend = make_world(kernel, sls)
        sls.checkpoint(group, name="first")
        first = group.latest_image
        # The flush is asynchronous: the image is still in flight.
        assert not first.durable
        sysc.poke(heap.start, b"changed")
        sls.checkpoint(group, name="second")
        sls.barrier(group)
        counter = kernel.obs.registry.counter(
            obs_names.C_CKPT_PIPELINED, group="app"
        )
        assert counter.value == 1

    def test_overlap_histogram_records_flush_tail(self, kernel, sls):
        proc, sysc, heap, group, backend = make_world(kernel, sls)
        sls.checkpoint(group, name="first")
        sysc.poke(heap.start, b"changed")
        sls.checkpoint(group, name="second")
        sls.barrier(group)
        hist = kernel.obs.registry.histogram(
            obs_names.H_FLUSH_OVERLAP, group="app"
        )
        assert hist.count == 1
        assert hist.total > 0

    def test_barrier_between_checkpoints_prevents_overlap(self, kernel, sls):
        proc, sysc, heap, group, backend = make_world(kernel, sls)
        sls.checkpoint(group, name="first")
        sls.barrier(group)
        assert group.latest_image.durable
        sysc.poke(heap.start, b"changed")
        sls.checkpoint(group, name="second")
        sls.barrier(group)
        counter = kernel.obs.registry.counter(
            obs_names.C_CKPT_PIPELINED, group="app"
        )
        assert counter.value == 0

    def test_pipelined_span_attribute(self, kernel, sls):
        kernel.obs.tracer.enable()
        proc, sysc, heap, group, backend = make_world(kernel, sls)
        sls.checkpoint(group, name="first")
        sysc.poke(heap.start, b"changed")
        sls.checkpoint(group, name="second")
        sls.barrier(group)
        spans = [
            span
            for root in kernel.obs.tracer.roots()
            for span in root.walk()
            if span.name == obs_names.SPAN_CHECKPOINT
        ]
        assert [s.attrs["pipelined"] for s in spans] == [False, True]


class TestConcurrentGroups:
    """Many groups checkpointing concurrently on one machine: each
    group's superblock release barrier covers only *its own* store's
    pending writes, and one group's flush shape is unperturbed by a
    concurrent group flushing to a different store."""

    @staticmethod
    def _solo_durable_at():
        kernel = Kernel(memory_bytes=8 * GIB)
        sls = SLS(kernel)
        _p, _s, _h, group, _b = make_world(kernel, sls)
        image = sls.checkpoint(group, name="a")
        sls.barrier(group)
        # start-relative: absolute timestamps shift with whatever
        # else the machine did first, the flush shape must not
        return image.metrics.durable_at_ns - image.metrics.started_at_ns

    def test_overlapping_flushes_stay_independent(self):
        solo = self._solo_durable_at()
        kernel = Kernel(memory_bytes=8 * GIB)
        sls = SLS(kernel)
        self._check_concurrent(kernel, sls, solo)

    @staticmethod
    def _check_concurrent(kernel, sls, solo):
        _pa, _sa, _ha, group_a, _ba = make_world(kernel, sls)
        proc_b = kernel.spawn("app-b")
        sysc_b = Syscalls(kernel, proc_b)
        heap_b = sysc_b.mmap(2 * MIB, name="heap")
        sysc_b.populate(heap_b.start, 2 * MIB, fill_fn=lambda i: b"b%d" % i)
        group_b = sls.persist(proc_b, name="app-b")
        device_b = NvmeDevice(kernel.clock, queue_depth=8)
        backend_b = StoreBackend(
            "disk1", ObjectStore(device_b, mem=kernel.mem)
        )
        backend_b.bind(kernel)
        group_b.attach(backend_b)
        # A checkpoints first; B's flush window overlaps A's.
        image_a = sls.checkpoint(group_a, name="a")
        assert not image_a.durable
        image_b = sls.checkpoint(group_b, name="b")
        sls.barrier(group_a)
        sls.barrier(group_b)
        # A's start-to-durable interval matches a solo run exactly:
        # B's concurrent flush to its own device shifted nothing.
        elapsed = (image_a.metrics.durable_at_ns
                   - image_a.metrics.started_at_ns)
        assert elapsed == solo
        assert image_b.durable

    def test_release_barriers_cover_own_store_only(self, kernel, sls):
        _pa, _sa, _ha, group_a, backend_a = make_world(kernel, sls)
        proc_b = kernel.spawn("app-b")
        sysc_b = Syscalls(kernel, proc_b)
        heap_b = sysc_b.mmap(2 * MIB, name="heap")
        sysc_b.populate(heap_b.start, 2 * MIB, fill_fn=lambda i: b"b%d" % i)
        group_b = sls.persist(proc_b, name="app-b")
        device_b = NvmeDevice(kernel.clock, queue_depth=8)
        backend_b = StoreBackend(
            "disk1", ObjectStore(device_b, mem=kernel.mem)
        )
        backend_b.bind(kernel)
        group_b.attach(backend_b)
        image_a = sls.checkpoint(group_a, name="a")
        image_b = sls.checkpoint(group_b, name="b")
        # Each store's superblock is held back to its *own* device's
        # pending deadline — and no further: A's barrier returns as
        # soon as A's store is durable, while B (which started its
        # flush later) is still in flight.  If A's commit barrier
        # covered B's device too, this would deadlock-order into
        # waiting out B's flush as well.
        sls.barrier(group_a)
        assert image_a.durable
        assert not image_b.durable
        sls.barrier(group_b)
        assert image_b.durable

    def test_scheduler_runs_groups_concurrently(self, kernel, sls):
        # Two unthrottled scheduler submissions → both images in
        # flight at once, each group's barrier waits only for its own.
        _pa, _sa, _ha, group_a, _ba = make_world(kernel, sls)
        _pb, _sb, _hb, group_b, _bb = make_world(kernel, sls)
        ta = sls.scheduler.submit(group_a)
        tb = sls.scheduler.submit(group_b)
        assert ta.status == "inflight" or ta.image.durable
        assert tb.status == "inflight" or tb.image.durable
        sls.barrier(group_a)
        assert ta.status == "durable"
        sls.barrier(group_b)
        assert tb.status == "durable"


class TestFlushInfo:
    def test_batched_persist_amortizes_doorbells(self, kernel, sls):
        proc, sysc, heap, group, backend = make_world(kernel, sls)
        image = sls.checkpoint(group, name="full")
        sls.barrier(group)
        info = image.copies["disk0"].flush
        pages = 2 * MIB // PAGE_SIZE
        assert info.records > pages  # pages + serialized kernel objects
        assert info.extents < info.records
        assert info.doorbells < info.records
        assert info.nbytes > 0
        assert info.submitted_at_ns >= 0
