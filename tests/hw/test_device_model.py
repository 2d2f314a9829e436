"""The device's data plane against a whole-device reference model.

A reference ``bytearray`` and a per-byte written flag replay what a
sequence of writes (sync, async, batched with a torn or dropped
member), discards, flips and a power cut at a random virtual time must
leave on a small device.  Every read must equal the model, and the
host must hold exactly as many bytes as the model has written and not
discarded: an unwound range goes back to what it held, unwritten
included, never to zeros the host keeps.
"""

from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceIOError
from repro.fault import names as fault_names
from repro.fault.registry import FailpointRegistry, FaultAction
from repro.hw.device import SECTOR, BatchWrite
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P
from repro.sim.clock import SimClock
from repro.units import transfer_ns

CAPACITY = 12 * 1024


@dataclass
class Pending:
    offset: int
    data: bytes
    completes_at: int
    old: bytes
    old_written: bytes


class Model:
    def __init__(self, device):
        self.device = device
        self.media = bytearray(CAPACITY)
        self.written = bytearray(CAPACITY)
        self.pending: list[Pending] = []

    def land(self, offset, data, completes_at):
        end = offset + len(data)
        self.pending.append(Pending(offset, data, completes_at,
                                    bytes(self.media[offset:end]),
                                    bytes(self.written[offset:end])))
        self.media[offset:end] = data
        self.written[offset:end] = b"\1" * len(data)

    def retire(self):
        now = self.device.clock.now
        self.pending = [p for p in self.pending if p.completes_at > now]

    def transfer(self, pending):
        spec = self.device.spec
        return transfer_ns(len(pending.data), spec.write_bandwidth) + spec.command_overhead_ns

    def crash(self):
        self.retire()
        now = self.device.clock.now
        for p in reversed(self.pending):
            xfer = self.transfer(p)
            landed = 0
            if now > p.completes_at - xfer:
                landed = len(p.data) * (now - p.completes_at + xfer) // xfer // SECTOR * SECTOR
            assert landed % SECTOR == 0 and landed < max(len(p.data), 1)
            lo, hi = p.offset + landed, p.offset + len(p.data)
            self.media[lo:hi] = p.old[landed:]
            self.written[lo:hi] = p.old_written[landed:]
        self.pending.clear()


extent = st.integers(0, CAPACITY - 1).flatmap(
    lambda offset: st.tuples(st.just(offset), st.integers(0, min(3000, CAPACITY - offset))))
payload = st.tuples(extent, st.integers(1, 255))
op = st.one_of(
    st.tuples(st.just("write"), payload, st.integers(0, 1)),
    st.tuples(st.just("write_async"), payload, st.integers(0, 1)),
    st.tuples(st.just("write_batch"), st.lists(payload, min_size=1, max_size=4),
              st.integers(0, 3), st.sampled_from(["torn", "drop", None]),
              st.sampled_from([0.0, 0.3, 0.75])),
    st.tuples(st.just("discard"), extent),
    st.tuples(st.just("flip"), st.integers(0, CAPACITY - 1), st.integers(1, 255)),
    st.tuples(st.just("crash"), st.integers(0, 3), st.integers(0, 1000)),
    st.tuples(st.just("read"), extent),
)


def fill(nbytes, seed):
    """``nbytes`` of a non-zero pattern that differs with ``seed``."""
    row = bytes((seed + i * 7) % 255 + 1 for i in range(251))
    return (row * (nbytes // 251 + 1))[:nbytes]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ops=st.lists(op, min_size=1, max_size=30))
def test_the_data_plane_equals_the_model(ops):
    spec = replace(OPTANE_900P, capacity=CAPACITY)
    device = NvmeDevice(SimClock(), spec=spec, queue_depth=2, num_queues=2)
    faults = FailpointRegistry(clock=device.clock)
    device.attach_faults(faults)
    model = Model(device)
    for kind, *args in ops:
        if kind in ("write", "write_async"):
            ((offset, nbytes), seed), queue = args
            data = fill(nbytes, seed)
            ticket = getattr(device, kind)(offset, data, queue=queue)
            model.land(offset, data, ticket.completes_at)
        elif kind == "write_batch":
            members, at, action, fraction = args
            writes = [BatchWrite(offset, fill(nbytes, seed))
                      for (offset, nbytes), seed in members]
            if action is not None:
                faults.arm(fault_names.FP_DEVICE_WRITE, FaultAction(action, fraction),
                           after=at % len(writes))
            tickets = device.write_batch(writes)
            for index, (write, ticket) in enumerate(zip(writes, tickets)):
                if action is None or index != at % len(writes):
                    model.land(write.offset, write.data, ticket.completes_at)
                elif action == "torn":
                    model.land(write.offset, write.data[: int(len(write.data) * fraction)],
                               ticket.completes_at)
        elif kind == "discard":
            (offset, nbytes), = args
            model.retire()
            if any(p.offset < offset + nbytes and offset < p.offset + len(p.data)
                   for p in model.pending):
                with pytest.raises(DeviceIOError, match="not yet durable"):
                    device.discard(offset, nbytes)
            else:
                device.discard(offset, nbytes)
                model.media[offset:offset + nbytes] = bytes(nbytes)
                model.written[offset:offset + nbytes] = bytes(nbytes)
        elif kind == "flip":
            offset, mask = args
            device.flip(offset, mask)
            model.media[offset] ^= mask
            model.written[offset] = 1
        elif kind == "crash":
            # at a point of the whole backlog, or of one write's transfer
            pick, permille = args
            now = device.clock.now
            model.retire()
            if pick and model.pending:
                target = model.pending[pick % len(model.pending)]
                at = target.completes_at - model.transfer(target) * permille // 1000
            else:
                at = now + (device.pending_deadline() - now) * permille // 1000
            device.clock.advance_to(max(now, at))
            device.crash()
            model.crash()
        else:
            (offset, nbytes), = args
            assert device.read(offset, nbytes) == model.media[offset:offset + nbytes]
        assert device.held_bytes == sum(model.written)
    device.crash()
    model.crash()
    assert device.read(0, CAPACITY) == model.media
    assert device.held_bytes == sum(model.written)
