"""The queue-depth-aware submission model (batched checkpoint I/O)."""

import pytest

from repro.errors import DeviceIOError
from repro.fault import names as fault_names
from repro.fault.registry import FailpointRegistry, FaultAction
from repro.hw.device import BatchWrite
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import (
    NVME_COMMAND_OVERHEAD_NS,
    NVME_SUBMIT_NS,
    OPTANE_900P,
    with_queue_model,
)
from repro.sim.clock import SimClock
from repro.units import KIB


@pytest.fixture
def clock():
    return SimClock()


def qdev(clock, queue_depth=8):
    return NvmeDevice(clock, queue_depth=queue_depth)


class TestSpecHelpers:
    def test_with_queue_model_arms_all_three_fields(self):
        spec = with_queue_model(OPTANE_900P, 8)
        assert spec.queue_depth == 8
        assert spec.submit_cost_ns == NVME_SUBMIT_NS
        assert spec.command_overhead_ns == NVME_COMMAND_OVERHEAD_NS

    def test_defaults_leave_legacy_model(self):
        assert OPTANE_900P.queue_depth == 0
        assert OPTANE_900P.submit_cost_ns == 0
        assert OPTANE_900P.command_overhead_ns == 0

    def test_negative_queue_depth_rejected(self):
        with pytest.raises(ValueError):
            with_queue_model(OPTANE_900P, -1)

    def test_nvme_device_opt_in_kwarg(self, clock):
        assert qdev(clock, 4).spec.queue_depth == 4
        assert NvmeDevice(clock).spec.queue_depth == 0


class TestDoorbells:
    def test_each_async_write_rings_one_doorbell(self, clock):
        dev = qdev(clock)
        for i in range(5):
            dev.write_async(i * KIB, b"x" * 100)
        assert dev.stats.doorbells == 5

    def test_batch_rings_one_doorbell_for_many_commands(self, clock):
        dev = qdev(clock)
        writes = [BatchWrite(offset=i * KIB, data=b"x" * 100) for i in range(8)]
        tickets = dev.write_batch(writes)
        assert len(tickets) == 8
        assert dev.stats.doorbells == 1
        assert dev.stats.batched_writes == 8
        assert dev.stats.writes == 8

    def test_doorbell_cost_charged_to_submitter(self, clock):
        dev = qdev(clock)
        before = clock.now
        dev.write_batch([BatchWrite(offset=0, data=b"a")])
        # One submission cost regardless of command count; the media
        # latency is NOT waited for (async).
        assert clock.now - before == NVME_SUBMIT_NS

    def test_unbatched_submission_costs_scale_per_write(self, clock):
        dev = qdev(clock)
        before = clock.now
        for i in range(10):
            dev.write_async(i * KIB, b"a")
        assert clock.now - before >= 10 * NVME_SUBMIT_NS

    def test_empty_batch_is_free(self, clock):
        dev = qdev(clock)
        assert dev.write_batch([]) == []
        assert dev.stats.doorbells == 0


class TestQueueDepth:
    def test_submitter_stalls_when_queue_full(self, clock):
        dev = qdev(clock, queue_depth=2)
        for i in range(8):
            dev.write_async(i * 8 * KIB, b"y" * 4096)
        assert dev.stats.submit_stall_ns > 0

    def test_unbounded_queue_never_stalls(self, clock):
        dev = NvmeDevice(clock)  # legacy: queue_depth 0
        for i in range(64):
            dev.write_async(i * 8 * KIB, b"y" * 4096)
        assert dev.stats.submit_stall_ns == 0

    def test_deeper_queue_finishes_no_later(self, clock):
        def last_completion(depth):
            c = SimClock()
            dev = NvmeDevice(c, queue_depth=depth)
            tickets = [
                dev.write_async(i * 8 * KIB, b"z" * 4096) for i in range(32)
            ]
            return tickets[-1].completes_at

        assert last_completion(16) <= last_completion(1)

    def test_fifo_completion_order_preserved(self, clock):
        # The crash oracle's strict prefix consistency relies on this.
        dev = qdev(clock, queue_depth=4)
        tickets = dev.write_batch(
            [BatchWrite(offset=i * 8 * KIB, data=b"w" * 4096) for i in range(16)]
        )
        completions = [t.completes_at for t in tickets]
        assert completions == sorted(completions)

    def test_crash_clears_inflight_queue(self, clock):
        dev = qdev(clock, queue_depth=2)
        for i in range(6):
            dev.write_async(i * 8 * KIB, b"q" * 4096)
        dev.crash()
        assert all(queue == [] for queue in dev._inflight)
        # Post-crash submissions start from an empty queue: no stall.
        stall_before = dev.stats.submit_stall_ns
        dev.write_async(0, b"fresh")
        assert dev.stats.submit_stall_ns == stall_before


class TestBatchSemantics:
    def test_batch_data_lands_on_media(self, clock):
        dev = qdev(clock)
        dev.write_batch(
            [
                BatchWrite(offset=0, data=b"alpha"),
                BatchWrite(offset=100, data=b"beta"),
            ]
        )
        assert dev.read(0, 5) == b"alpha"
        assert dev.read(100, 4) == b"beta"

    def test_batch_members_not_durable_until_completion(self, clock):
        dev = qdev(clock)
        tickets = dev.write_batch([BatchWrite(offset=0, data=b"gone")])
        assert clock.now < tickets[0].completes_at
        lost = dev.crash()
        assert lost == 1
        assert dev.read(0, 4) == b"\x00" * 4

    def test_logical_nbytes_inflates_transfer_time(self, clock):
        dev = qdev(clock)
        small = dev.write_batch([BatchWrite(offset=0, data=b"x")])
        big = dev.write_batch(
            [BatchWrite(offset=8 * KIB, data=b"x", logical_nbytes=256 * KIB)]
        )
        assert big[0].latency_ns > small[0].latency_ns

    def test_identical_timing_between_single_and_batch_of_one(self):
        c1, c2 = SimClock(), SimClock()
        d1 = NvmeDevice(c1, queue_depth=8)
        d2 = NvmeDevice(c2, queue_depth=8)
        t1 = d1.write_async(0, b"same" * 100)
        t2 = d2.write_batch([BatchWrite(offset=0, data=b"same" * 100)])[0]
        assert (t1.issued_at, t1.completes_at) == (t2.issued_at, t2.completes_at)


class TestBatchFailpoint:
    def arm(self, clock, dev, action, **kwargs):
        registry = FailpointRegistry(clock=clock, seed=1)
        dev.attach_faults(registry)
        registry.arm(fault_names.FP_DEVICE_BATCH, action, **kwargs)
        return registry

    def test_fail_raises_before_any_member_lands(self, clock):
        dev = qdev(clock)
        self.arm(clock, dev, FaultAction("fail"))
        with pytest.raises(DeviceIOError):
            dev.write_batch([BatchWrite(offset=0, data=b"never")])
        assert dev.stats.writes == 0
        assert dev.read(0, 5) == b"\x00" * 5

    def test_cut_at_batch_boundary_keeps_earlier_batches_only(self, clock):
        # A power cut at the doorbell: what was durable before stays,
        # and no member of the refused batch reaches the media.
        dev = qdev(clock)
        dev.write_batch([BatchWrite(offset=0, data=b"before")])
        dev.flush_barrier()
        self.arm(clock, dev, FaultAction("fail"))
        with pytest.raises(DeviceIOError):
            dev.write_batch([BatchWrite(offset=0, data=b"after!"),
                             BatchWrite(offset=KIB, data=b"never")])
        assert dev.crash() == 0
        assert dev.read(0, 6) == b"before"
        assert dev.read(KIB, 5) == b"\x00" * 5

    def test_member_commands_still_fire_device_write(self, clock):
        dev = qdev(clock)
        registry = FailpointRegistry(clock=clock, seed=1)
        dev.attach_faults(registry)
        point = registry.arm(
            fault_names.FP_DEVICE_WRITE, FaultAction("fail"),
            after=10 ** 9, count=1,
        )
        dev.write_batch(
            [BatchWrite(offset=i * KIB, data=b"m") for i in range(7)]
        )
        assert point.seen == 7


class TestLegacyBehaviourUnchanged:
    def test_disarmed_spec_write_async_advances_nothing(self, clock):
        dev = NvmeDevice(clock)
        before = clock.now
        dev.write_async(0, b"free submit")
        assert clock.now == before

    def test_disarmed_batch_timing_equals_async_writes(self):
        c1, c2 = SimClock(), SimClock()
        d1, d2 = NvmeDevice(c1), NvmeDevice(c2)
        singles = [d1.write_async(i * KIB, b"s" * 512) for i in range(4)]
        batched = d2.write_batch(
            [BatchWrite(offset=i * KIB, data=b"s" * 512) for i in range(4)]
        )
        assert [t.completes_at for t in singles] == [
            t.completes_at for t in batched
        ]
