"""Unit tests for the per-tenant QoS checkpoint scheduler."""

import pytest

from repro.core.backends import DiskBackend, MemoryBackend
from repro.core.orchestrator import SLS
from repro.core.scheduler import (
    DEFAULT_TENANT,
    CheckpointScheduler,
    TenantQoS,
)
from repro.errors import SlsError
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P, with_queue_model
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, PAGE_SIZE


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=8 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


@pytest.fixture
def disk(kernel):
    spec = with_queue_model(OPTANE_900P, 8, num_queues=2)
    device = NvmeDevice(kernel.clock, spec=spec)
    store = ObjectStore(device, mem=kernel.mem)
    backend = DiskBackend("disk0", store)
    backend.bind(kernel)
    return backend


def make_group(kernel, sls, backend, name="app", pages=16, tenant=None):
    proc = kernel.spawn(name)
    sysc = Syscalls(kernel, proc)
    heap = sysc.mmap(pages * PAGE_SIZE, name="heap")
    sysc.populate(
        heap.start, pages * PAGE_SIZE,
        fill_fn=lambda i: b"%s-%08d" % (name.encode(), i),
    )
    group = sls.persist(proc, name=name)
    group.attach(backend)
    if tenant is not None:
        sls.scheduler.assign(group, tenant=tenant)
    return group, sysc, heap


class TestTenancy:
    def test_unassigned_group_bills_default(self, kernel, sls, disk):
        group, _, _ = make_group(kernel, sls, disk)
        assert sls.scheduler.tenant_of(group) == DEFAULT_TENANT

    def test_assign_requires_registered_tenant(self, kernel, sls, disk):
        group, _, _ = make_group(kernel, sls, disk)
        with pytest.raises(SlsError, match="unknown tenant"):
            sls.scheduler.assign(group, tenant="ghost")

    def test_qos_validation(self):
        with pytest.raises(SlsError, match="weight"):
            TenantQoS(weight=0)
        with pytest.raises(SlsError, match="max_pending"):
            TenantQoS(max_pending=0)


class TestLifecycle:
    def test_unthrottled_submit_is_synchronous(self, kernel, sls, disk):
        group, _, _ = make_group(kernel, sls, disk)
        ticket = sls.scheduler.submit(group)
        # No throttle: dispatch ran inline, the checkpoint exists.
        assert ticket.status in ("inflight", "durable")
        assert ticket.image is not None
        sls.barrier(group)
        assert ticket.status == "durable"
        assert ticket.flush_lag_ns is not None
        assert ticket.flush_lag_ns > 0

    def test_memory_backend_completes_inline(self, kernel, sls):
        backend = MemoryBackend("mem0")
        group, _, _ = make_group(kernel, sls, backend)
        ticket = sls.scheduler.submit(group)
        assert ticket.status == "durable"
        assert sls.scheduler.outstanding() == 0

    def test_completed_lag_recorded_per_tenant(self, kernel, sls, disk):
        sls.scheduler.register_tenant("t1", qos=TenantQoS())
        group, _, _ = make_group(kernel, sls, disk, tenant="t1")
        sls.scheduler.submit(group)
        sls.barrier(group)
        assert len(sls.scheduler.completed_lags["t1"]) == 1


class TestAdmission:
    def test_pending_cap_rejects(self, kernel, sls, disk):
        sls.scheduler.max_inflight_total = 1
        sls.scheduler.register_tenant(
            "capped", qos=TenantQoS(max_pending=1)
        )
        groups = [
            make_group(kernel, sls, disk, name=f"app{i}", tenant="capped")[0]
            for i in range(4)
        ]
        tickets = [sls.scheduler.submit(g) for g in groups]
        # First dispatches (inflight), second queues, rest are rejected.
        assert [t.status for t in tickets[:2]] == ["inflight", "pending"]
        assert all(t.status == "rejected" for t in tickets[2:])
        assert sls.scheduler.tickets_rejected == 2
        for ticket in tickets[2:]:
            assert "cap 1" in ticket.reason
        for group in groups:
            sls.barrier(group)
        # Rejected tickets never ran; admitted ones all became durable.
        assert [t.status for t in tickets] == [
            "durable", "durable", "rejected", "rejected"
        ]

    def test_max_inflight_total_defers_dispatch(self, kernel, sls, disk):
        sls.scheduler.max_inflight_total = 1
        a, _, _ = make_group(kernel, sls, disk, name="a")
        b, _, _ = make_group(kernel, sls, disk, name="b")
        ta = sls.scheduler.submit(a)
        tb = sls.scheduler.submit(b)
        assert ta.status == "inflight"
        assert tb.status == "pending"
        sls.barrier(b)
        assert ta.status == "durable"
        assert tb.status == "durable"
        # b could only start after a went durable
        assert tb.started_at_ns >= ta.durable_at_ns

    def test_per_tenant_inflight_cap_skips_not_starves(self, kernel, sls, disk):
        sls.scheduler.max_inflight_total = 2
        sls.scheduler.register_tenant(
            "greedy", qos=TenantQoS(max_inflight=1)
        )
        sls.scheduler.register_tenant("meek", qos=TenantQoS())
        g1, _, _ = make_group(kernel, sls, disk, name="g1", tenant="greedy")
        g2, _, _ = make_group(kernel, sls, disk, name="g2", tenant="greedy")
        m, _, _ = make_group(kernel, sls, disk, name="m", tenant="meek")
        t1 = sls.scheduler.submit(g1)
        t2 = sls.scheduler.submit(g2)
        tm = sls.scheduler.submit(m)
        # greedy's second request is tenant-blocked; meek's dispatches
        # around it into the free global slot.
        assert t1.status == "inflight"
        assert t2.status == "pending"
        assert tm.status == "inflight"
        for group in (g1, g2, m):
            sls.barrier(group)
        assert {t.status for t in (t1, t2, tm)} == {"durable"}


class TestWfq:
    def test_weighted_interleave(self, kernel, sls):
        # Pure ordering test on a throttled scheduler with a manual
        # drain: a weight-4 tenant gets 4 slots per weight-1 slot.
        backend = MemoryBackend("mem0")
        sls.scheduler.register_tenant("heavy", qos=TenantQoS(weight=4))
        sls.scheduler.register_tenant("light", qos=TenantQoS(weight=1))
        heavy = [
            make_group(kernel, sls, backend, name=f"h{i}", tenant="heavy")[0]
            for i in range(4)
        ]
        light = [
            make_group(kernel, sls, backend, name=f"l{i}", tenant="light")[0]
            for i in range(2)
        ]
        order = []
        real_run = CheckpointScheduler._run

        def spy_run(self, ticket):
            order.append(ticket.tenant)
            real_run(self, ticket)

        sls.scheduler._run = spy_run.__get__(sls.scheduler)
        # Hold dispatch shut while the queue builds, then open it.
        sls.scheduler.max_inflight_total = 0
        for group in light[:1] + heavy + light[1:]:
            sls.scheduler.submit(group)
        sls.scheduler.max_inflight_total = None
        sls.scheduler._dispatch()
        # Finish tags: light's two requests land at 1000 and 2000
        # (quantum/1); heavy's four at 250, 500, 750, 1000 (quantum/4).
        # Heavy's first three beat light's first; the 1000-tag tie goes
        # to light's earlier submission seq.  Net: a 4:1 interleave
        # instead of strict FIFO.
        assert order == [
            "heavy", "heavy", "heavy", "light", "heavy", "light"
        ]

    def test_slo_violation_counted(self, kernel, sls, disk):
        sls.scheduler.register_tenant(
            "strict", qos=TenantQoS(flush_slo_ns=1)
        )
        group, _, _ = make_group(kernel, sls, disk, tenant="strict")
        sls.scheduler.submit(group)
        sls.barrier(group)
        assert sls.scheduler.slo_violations == 1
