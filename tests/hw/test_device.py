"""Unit tests for the storage device model."""

import copy
import tracemalloc

import pytest

from repro.errors import DeviceFullError, DeviceIOError
from repro.fault import names as fault_names
from repro.fault.registry import FailpointRegistry, FaultAction
from repro.hw.device import SECTOR, StorageDevice
from repro.hw.memdev import MemoryDevice
from repro.hw.nvdimm import NvdimmDevice
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import DRAM, OPTANE_900P, SPINNING_DISK
from repro.sim.clock import SimClock
from repro.units import GIB, KIB, USEC


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def dev(clock):
    return NvmeDevice(clock)


class TestDataPlane:
    def test_write_read_roundtrip(self, dev):
        dev.write(0, b"hello")
        assert dev.read(0, 5) == b"hello"

    def test_unwritten_reads_zero(self, dev):
        assert dev.read(1000, 4) == b"\x00" * 4

    def test_unaligned_overlapping_writes(self, dev):
        dev.write(10, b"aaaaaaaa")
        dev.write(14, b"bb")
        assert dev.read(10, 8) == b"aaaabbaa"

    def test_write_spanning_blocks(self, dev):
        data = bytes(range(256)) * 40  # > 2 blocks
        dev.write(4090, data)
        assert dev.read(4090, len(data)) == data

    @pytest.mark.parametrize(
        "offset, nbytes",
        [
            (4096, 0), (5000, 0),                 # no block
            (4096, 4096), (4100, 40), (8191, 1),  # one block, whole and part
            (4000, 4136), (4096, 8192),           # two
            (4095, 4098), (4096, 12288), (100, 12000),  # three
            (4096, 16384), (8000, 9000),          # across the unwritten block 3
            (19000, 3000), (20479, 4097), (40960, 5000),  # past the last byte
        ],
    )
    def test_reads_spanning_blocks_and_holes(self, dev, offset, nbytes):
        # blocks 0-2 and most of 4 are written, 3 is a hole
        image = bytearray(12 * 4096)
        for start, length in ((0, 3 * 4096), (4 * 4096, 4000)):
            image[start : start + length] = bytes(i % 251 + 1 for i in range(length))
            dev.write(start, bytes(image[start : start + length]))
        data = dev.read(offset, nbytes)
        assert type(data) is bytes
        assert data == image[offset : offset + nbytes]

    def test_capacity_enforced(self, clock):
        dev = StorageDevice(OPTANE_900P, clock)
        with pytest.raises(DeviceFullError):
            dev.write(dev.capacity - 10, b"x" * 100)


class TestCostModel:
    def test_write_latency_includes_fixed_cost(self, dev, clock):
        ticket = dev.write(0, b"x")
        assert ticket.latency_ns >= OPTANE_900P.write_latency_ns

    def test_bandwidth_term_scales(self, dev):
        small = dev.write_async(0, b"x" * KIB)
        large = dev.write_async(1 * GIB, b"x" * (128 * KIB))
        assert large.latency_ns > small.latency_ns

    def test_logical_size_inflates_time_only(self, dev):
        compact = dev.write_async(0, b"x" * 100)
        inflated = dev.write_async(8192, b"x" * 100, logical_nbytes=4096 + 40)
        assert inflated.completes_at - inflated.issued_at >= compact.latency_ns
        assert dev.read(8192, 3) == b"xxx"

    def test_queueing_serializes_transfers(self, dev):
        t1 = dev.write_async(0, b"x" * (1024 * KIB))
        t2 = dev.write_async(2 * GIB, b"x" * (1024 * KIB))
        assert t2.completes_at > t1.completes_at

    def test_sync_read_advances_clock(self, dev, clock):
        before = clock.now
        dev.read(0, 4096)
        assert clock.now >= before + OPTANE_900P.read_latency_ns

    def test_async_write_does_not_advance_clock(self, dev, clock):
        before = clock.now
        dev.write_async(0, b"x" * KIB)
        assert clock.now == before

    def test_hdd_much_slower_than_optane(self, clock):
        # The paper's historical argument: SLSes were impractical on
        # spinning disks.
        hdd = StorageDevice(SPINNING_DISK, SimClock())
        optane = NvmeDevice(SimClock())
        hdd_t = hdd.write(0, b"x" * 4096)
        optane_t = optane.write(0, b"x" * 4096)
        assert hdd_t.latency_ns > 100 * optane_t.latency_ns


class TestDurability:
    def test_flush_barrier_advances_to_durability(self, dev, clock):
        ticket = dev.write_async(0, b"x" * (64 * KIB))
        assert clock.now < ticket.completes_at
        dev.flush_barrier()
        assert clock.now >= ticket.completes_at
        assert dev.pending_writes() == 0

    def test_pending_deadline(self, dev, clock):
        t1 = dev.write_async(0, b"x" * KIB)
        t2 = dev.write_async(8192, b"x" * KIB)
        assert dev.pending_deadline() == max(t1.completes_at, t2.completes_at)

    def test_crash_tears_inflight_writes(self, dev):
        dev.write(0, b"durable!")
        dev.flush_barrier()
        dev.write_async(4096, b"inflight")
        lost = dev.crash()
        assert lost == 1
        assert dev.read(0, 8) == b"durable!"
        assert dev.read(4096, 8) == b"\x00" * 8
        assert dev.held_bytes == 8  # the torn write holds nothing

    def test_crash_keeps_durable_writes(self, dev, clock):
        ticket = dev.write_async(0, b"data")
        clock.advance_to(ticket.completes_at)
        assert dev.crash() == 0
        assert dev.read(0, 4) == b"data"

    def test_volatile_device_loses_everything(self, clock):
        dev = MemoryDevice(clock)
        dev.write(0, b"ephemeral")
        dev.flush_barrier()
        dev.write_async(4096, b"inflight")
        dev.crash()
        assert dev.read(0, 9) == b"\x00" * 9
        assert dev.held_bytes == 0


def crash_mid_transfer(dev, clock, offset, data):
    """Cut power 1 ns before an async write completes; returns how many
    of its bytes landed (whole sectors of its prefix)."""
    ticket = dev.write_async(offset, data)
    clock.advance_to(ticket.completes_at - 1)
    assert dev.crash() == 1
    after = dev.read(offset, len(data))
    landed = next((i for i in range(len(data)) if after[i] != data[i]), len(data))
    assert landed % SECTOR == 0 and 0 < landed < len(data)
    return landed


class TestCrashLeavesNoZeroFill:
    """An unwound range holds what it held before the write: a piece's
    bytes, or nothing at all where the write landed on unwritten space."""

    def test_unwritten_space_unwinds_to_unwritten(self, dev, clock):
        dev.write(0, b"k" * 100)
        landed = crash_mid_transfer(dev, clock, 8192, b"n" * (64 * KIB))
        assert dev.read(8192, 64 * KIB) == b"n" * landed + bytes(64 * KIB - landed)
        assert dev.held_bytes == 100 + landed

    def test_discarded_space_unwinds_to_unwritten(self, dev, clock):
        dev.write(8192, b"o" * (64 * KIB))
        dev.discard(8192, 64 * KIB)
        landed = crash_mid_transfer(dev, clock, 8192, b"n" * (64 * KIB))
        assert dev.held_bytes == landed

    def test_a_live_piece_is_restored_exactly(self, dev, clock):
        old = bytes(range(1, 251)) * 400
        dev.write(1000, old)
        landed = crash_mid_transfer(dev, clock, 5000, b"n" * (32 * KIB))
        expect = old[:4000] + b"n" * landed + old[4000 + landed:]
        assert dev.read(1000, len(old)) == expect
        assert dev.held_bytes == len(old)


class TestDiscard:
    """``discard`` is simulator memory: the range reads as never written
    and the host holds none of its bytes; no command runs (nor does one
    for ``flip``, the other operation outside the model)."""

    def test_range_reads_unwritten_and_a_neighbour_survives(self, dev):
        dev.write(100, b"a" * 100 + b"b" * 100)
        dev.discard(100, 100)
        assert dev.read(100, 200) == bytes(100) + b"b" * 100
        assert dev.held_bytes == 100

    def test_the_host_holds_only_undiscarded_bytes(self, dev):
        dev.write(4000, bytes(range(1, 251)) * 34)  # [4000, 12500)
        assert dev.held_bytes == 8500
        dev.discard(4096, 4096)
        assert dev.held_bytes == 4404
        dev.discard(8192, 100)
        assert dev.held_bytes == 4304
        dev.discard(4000, 96)
        assert dev.held_bytes == 4208
        dev.discard(8292, 4208)
        assert dev.held_bytes == 0
        assert dev.read(4000, 8500) == bytes(8500)

    def test_a_remnant_keeps_only_its_own_bytes(self, dev):
        # One coalesced write, all of it dead but 100 bytes: the host
        # lets the rest go rather than keep the whole write alive.
        tracemalloc.start()
        try:
            dev.write(0, bytes(range(1, 251)) * 4096)
            before = tracemalloc.get_traced_memory()[0]
            dev.discard(100, 250 * 4096 - 100)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert before - after > 250 * 4096 - 4096
        assert dev.read(0, 100) == bytes(range(1, 101))

    @pytest.mark.parametrize("outside_the_model, held", [
        (lambda dev: dev.discard(0, 8192), 0),
        (lambda dev: (dev.flip(4096), dev.flip(9000)), 8193),
    ], ids=["discard", "flip"])
    def test_moves_no_clock_stats_or_failpoint(self, clock, outside_the_model, held):
        dev = NvmeDevice(clock, queue_depth=8, num_queues=4)
        faults = FailpointRegistry(clock=clock)
        dev.attach_faults(faults)
        dev.write(0, b"x" * 8192)
        for name in (fault_names.FP_DEVICE_READ, fault_names.FP_DEVICE_WRITE,
                     fault_names.FP_DEVICE_BATCH, fault_names.FP_DEVICE_FLUSH):
            faults.arm(name, FaultAction("fail"), count=None)
        dev.inject_failures(1)
        now, stats = clock.now, copy.deepcopy(dev.stats)
        outside_the_model(dev)
        assert clock.now == now
        assert dev.stats == stats
        assert faults.log == []
        assert dev.held_bytes == held

    def test_refuses_a_write_that_is_not_yet_durable(self, dev, clock):
        dev.write(0, b"d" * 8192)
        ticket = dev.write_async(8192, b"y" * 100)
        with pytest.raises(DeviceIOError, match="not yet durable"):
            dev.discard(8100, 200)
        assert dev.read(8100, 200) == b"d" * 92 + b"y" * 100 + bytes(8)
        dev.discard(0, 8192)  # ends where the write begins
        clock.advance_to(ticket.completes_at)
        dev.discard(8192, 100)
        assert dev.held_bytes == 0


class TestFlip:
    """``flip`` is media decay: one byte changes."""

    def test_xors_one_written_byte(self, dev):
        dev.write(100, b"abc")
        dev.flip(101)
        dev.flip(102, 0x01)
        assert dev.read(100, 3) == b"a" + bytes((ord("b") ^ 0xFF, ord("c") ^ 0x01))
        assert dev.held_bytes == 3

    def test_a_never_written_byte_becomes_written(self, dev):
        dev.write(0, b"x" * 10)
        dev.flip(20, 0x10)
        assert dev.read(0, 24) == b"x" * 10 + bytes(10) + b"\x10" + bytes(3)
        assert dev.held_bytes == 11


class TestFailureInjection:
    def test_injected_failures(self, dev):
        dev.inject_failures(2)
        with pytest.raises(DeviceIOError):
            dev.write(0, b"x")
        with pytest.raises(DeviceIOError):
            dev.read(0, 1)
        dev.write(0, b"x")  # third op succeeds


class TestSpecValidation:
    def test_nvdimm_requires_byte_addressable(self, clock):
        with pytest.raises(ValueError):
            NvdimmDevice(clock, spec=OPTANE_900P)

    def test_memory_device_requires_volatile(self, clock):
        with pytest.raises(ValueError):
            MemoryDevice(clock, spec=OPTANE_900P)

    def test_stats_accumulate(self, dev):
        dev.write(0, b"x" * 100)
        dev.read(0, 50)
        assert dev.stats.writes == 1
        assert dev.stats.reads == 1
        assert dev.stats.bytes_written == 100
        assert dev.stats.bytes_read == 50
