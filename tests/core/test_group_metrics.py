"""Tests for persistence-group management and the metrics records."""

import pytest

from repro.core.backends import MemoryBackend, make_disk_backend
from repro.core.checkpoint import CheckpointImage
from repro.core.group import DEFAULT_PERIOD_NS, PersistenceGroup
from repro.core.metrics import CheckpointMetrics, GroupStats, RestoreMetrics
from repro.core.orchestrator import SLS
from repro.errors import BackendError, NotPersisted
from repro.hw.nvme import NvmeDevice
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, KIB, PAGE_SIZE


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=4 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


class TestGroupManagement:
    def test_default_period_is_100hz(self):
        assert DEFAULT_PERIOD_NS == 10_000_000

    def test_group_requires_exactly_one_target(self, kernel):
        proc = kernel.spawn("app")
        box = kernel.create_container("c")
        with pytest.raises(NotPersisted):
            PersistenceGroup(kernel, "bad", root=proc, container=box)
        with pytest.raises(NotPersisted):
            PersistenceGroup(kernel, "bad")

    def test_double_attach_rejected(self, kernel, sls):
        proc = kernel.spawn("app")
        group = sls.persist(proc)
        group.attach(MemoryBackend("m"))
        with pytest.raises(BackendError):
            group.attach(MemoryBackend("m"))

    def test_detach_unknown_rejected(self, kernel, sls):
        proc = kernel.spawn("app")
        group = sls.persist(proc)
        with pytest.raises(BackendError):
            group.detach("ghost")

    def test_backend_by_name(self, kernel, sls):
        proc = kernel.spawn("app")
        group = sls.persist(proc)
        backend = MemoryBackend("m")
        group.attach(backend)
        assert group.backend_by_name("m") is backend
        with pytest.raises(BackendError):
            group.backend_by_name("ghost")

    def test_dead_processes_leave_membership(self, kernel, sls):
        proc = kernel.spawn("app")
        child = kernel.fork(proc)
        group = sls.persist(proc)
        assert group.member_pids() == {proc.pid, child.pid}
        kernel.exit(child)
        assert group.member_pids() == {proc.pid}

    def test_image_by_name_picks_newest(self, kernel, sls, disk_backend):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(16 * KIB)
        sys.poke(entry.start, b"a")
        group = sls.persist(proc)
        group.attach(disk_backend)
        sls.checkpoint(group, name="same")
        sys.poke(entry.start, b"b")
        second = sls.checkpoint(group, name="same")
        assert group.image_by_name("same") is second

    def test_find_group(self, kernel, sls):
        proc = kernel.spawn("app")
        group = sls.persist(proc, name="named")
        assert sls.find_group("named") is group
        assert sls.find_group("ghost") is None


class TestMetricsRecords:
    def test_checkpoint_rows_formatting(self):
        metrics = CheckpointMetrics(
            metadata_copy_ns=267_900, data_copy_ns=5_145_900,
            stop_time_ns=5_413_800,
        )
        rows = dict(metrics.rows())
        assert rows["Metadata copy"] == "267.9 us"
        assert rows["Lazy data copy"] == "5145.9 us"
        assert rows["Application stop time"] == "5413.8 us"
        assert "Full" in str(metrics)

    def test_restore_rows_na_for_memory(self):
        metrics = RestoreMetrics(memory_ns=100, metadata_ns=200)
        rows = dict(metrics.rows())
        assert rows["Object Store Read"] == "N/A"
        assert metrics.total_ns == 300

    def test_flush_lag(self):
        metrics = CheckpointMetrics(
            started_at_ns=1000, stop_time_ns=500, durable_at_ns=5000
        )
        assert metrics.flush_lag_ns == 3500

    def test_group_stats_history_bounded(self):
        stats = GroupStats()
        for i in range(100):
            stats.record(CheckpointMetrics(stop_time_ns=i), keep_history=10)
        assert stats.checkpoints_taken == 100
        assert len(stats.history) == 10
        assert stats.history[-1].stop_time_ns == 99

    def test_mean_stop(self):
        stats = GroupStats()
        assert stats.mean_stop_ns() == 0.0
        stats.record(CheckpointMetrics(stop_time_ns=100))
        stats.record(CheckpointMetrics(stop_time_ns=300))
        assert stats.mean_stop_ns() == 200.0


class TestCheckpointImageLifecycle:
    def test_on_durable_after_the_fact(self):
        image = CheckpointImage(name="x", group_name="g", epoch=1,
                                incremental=False, meta={})
        image.metrics.backends_expected = 1
        fired = []
        image.mark_durable("disk0", when_ns=42)
        image.on_durable(lambda img: fired.append(img.metrics.durable_at_ns))
        assert fired == [42]

    def test_mark_durable_idempotent(self):
        image = CheckpointImage(name="x", group_name="g", epoch=1,
                                incremental=False, meta={})
        image.metrics.backends_expected = 1
        image.mark_durable("a", when_ns=10)
        image.mark_durable("a", when_ns=99)
        assert image.metrics.durable_at_ns == 10

    def test_pruning_releases_the_memory_copy(self, kernel, sls):
        """Pruning a memory segment frees the frames only it held."""
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(4 * PAGE_SIZE)
        for i in range(4):
            sys.poke(entry.start + i * PAGE_SIZE, b"v0-%d" % i)
        group = sls.persist(proc)
        group.attach(MemoryBackend("memory"))
        group.retention = 2
        first = sls.checkpoint(group)                 # full
        copy = first.copies["memory"]
        original = copy.pages[entry.obj.oid][0]
        sys.poke(entry.start, b"v1")                  # COW: first is sole owner
        second = sls.checkpoint(group)                # incremental
        second_copy = second.copies["memory"]
        before = kernel.phys.allocated_frames
        third = sls.checkpoint(group, full=True)      # prunes first + second
        assert group.images == [third]
        assert first.copies == {} and second.copies == {}
        assert original.refcount == 0
        assert kernel.phys.allocated_frames == before - 1
        assert copy.release(kernel.phys) == 0         # idempotent
        assert second_copy.release(kernel.phys) == 0
        assert kernel.phys.allocated_frames == before - 1
        assert sys.peek(entry.start, 2) == b"v1"
