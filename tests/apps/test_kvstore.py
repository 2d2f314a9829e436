"""Tests for the Redis-like server and its two persistence engines."""

import pytest

from repro.apps.kvstore import (
    AuroraPersistence,
    ClassicPersistence,
    RedisLikeServer,
)
from repro.core.backends import make_disk_backend
from repro.core.orchestrator import SLS
from repro.hw.nvme import NvmeDevice
from repro.posix.kernel import Kernel
from repro.units import GIB, MIB, PAGE_SIZE


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=8 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


@pytest.fixture
def server(kernel):
    srv = RedisLikeServer(kernel, working_set=16 * MIB)
    srv.load_dataset()
    return srv


class TestServer:
    def test_dataset_resident(self, server):
        assert server.proc.aspace.resident_pages() >= server.nslots

    def test_set_get(self, server):
        server.set(5, b"value-five")
        assert server.get(5, 10) == b"value-five"

    def test_distinct_slot_content(self, server):
        assert server.get(0, 9) != server.get(1, 9)

    def test_dirty_fraction_touches_exact_count(self, server, kernel):
        # Arm COW first (the dirty lists are only complete once pages are
        # frozen/write-protected, i.e. after a checkpoint).
        first = kernel.cow.freeze(server.proc.aspace.vm_objects())
        touched = server.dirty_fraction(0.25)
        assert touched == server.nslots // 4
        second = kernel.cow.freeze(
            server.proc.aspace.vm_objects(), incremental_since=first.epoch + 1
        )
        assert len(second) == touched

    def test_slot_bounds(self, server):
        with pytest.raises(IndexError):
            server.slot_addr(server.nslots)

    def test_clients_connect_outside_group(self, server, sls, kernel):
        clients = server.accept_clients(3)
        group = sls.persist(server.proc)
        assert all(c.pid not in group.member_pids() for c in clients)
        server.reply(0, b"pong")
        got = clients[0].sys.read(clients[0]._redis_fd, 4)
        assert got == b"pong"


class TestAuroraPort:
    @pytest.fixture
    def port(self, server, sls, kernel):
        group = sls.persist(server.proc, name="redis")
        group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
        server.attach_api(sls)
        return AuroraPersistence(server)

    def test_save_is_submillisecond(self, port, server):
        server.dirty_fraction(0.1)
        stop_ns = port.save()
        assert stop_ns < 1_000_000

    def test_log_commit_low_latency(self, port, kernel):
        latency = port.append_and_commit(b"SET k v")
        assert latency < 50_000  # ~one NVMe write

    def test_checkpoint_truncates_log(self, port):
        port.append_and_commit(b"SET a 1")
        port.append_and_commit(b"SET b 2")
        port.save()
        assert port.recover_replay() == []

    def test_replay_after_save(self, port):
        port.save()
        port.append_and_commit(b"SET post-ckpt 1")
        assert port.recover_replay() == [b"SET post-ckpt 1"]

    def test_wait_durable(self, port, server):
        port.save()
        port.wait_durable()
        assert server.api.sls.group_of(server.proc).latest_image.durable


class TestClassicBaseline:
    @pytest.fixture
    def classic(self, server, kernel):
        return ClassicPersistence(server, NvmeDevice(kernel.clock, name="aof"))

    def test_aof_fsync_slower_than_ntflush(self, classic, server, sls, kernel):
        group = sls.persist(server.proc, name="redis")
        group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
        server.attach_api(sls)
        aurora = AuroraPersistence(server)
        aof_ns = classic.append_and_fsync(b"SET k v")
        nt_ns = aurora.append_and_commit(b"SET k v")
        # fsync pays journal round trips the persistent log does not.
        assert aof_ns > nt_ns

    def test_bgsave_stall_exceeds_aurora_stop(self, sls, kernel):
        # Steady state at a bigger heap: BGSAVE's fork write-protects
        # the whole working set every save, Aurora only the dirty set.
        server = RedisLikeServer(kernel, working_set=64 * MIB)
        server.load_dataset()
        classic = ClassicPersistence(server, NvmeDevice(kernel.clock, name="aof"))
        group = sls.persist(server.proc, name="redis")
        group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
        server.attach_api(sls)
        aurora = AuroraPersistence(server)
        aurora.save()  # initial full checkpoint
        server.dirty_fraction(0.1)
        aurora_stop = aurora.save()  # incremental
        fork_stall = classic.bgsave()
        assert fork_stall > aurora_stop

    def test_bgsave_child_cleaned_up(self, classic, server, kernel):
        procs_before = len(kernel.procs)
        classic.bgsave()
        assert len(kernel.procs) == procs_before
