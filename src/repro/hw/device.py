"""Simulated storage devices.

A :class:`StorageDevice` stores real bytes (so the object store's
checksums, dedup, and crash tests operate on actual data) and charges
virtual time according to its :class:`~repro.hw.specs.DeviceSpec`.

Two I/O flavours mirror how Aurora uses devices:

- **synchronous** reads/writes advance the shared clock to completion
  (restore paths, log flushes with ``sls_ntflush``);
- **asynchronous** writes return the completion time without blocking
  the caller — the orchestrator's background flusher resumes the
  application immediately and uses the event queue to learn when data
  became durable (external consistency releases buffered output then).

Durability is modelled faithfully: a write is durable only once its
completion time has passed; :meth:`StorageDevice.crash` at time *t*
unwinds in-flight writes to their pre-images (whole sectors of a write
caught mid-transfer survive), which the object-store recovery tests use
to exercise torn-checkpoint handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import DeviceFullError, DeviceIOError, PowerCut
from repro.fault import names as fault_names
from repro.hw.specs import DeviceSpec
from repro.sim.clock import SimClock
from repro.units import transfer_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.fault.registry import FailpointRegistry

_BLOCK = 4096
#: what a block that was never written reads as
_UNWRITTEN = bytes(_BLOCK)


@dataclass
class QueueIoStats:
    """Per-submission-queue counters (multi-queue devices).

    The flat :class:`IoStats` totals stay authoritative for the device
    as a whole; these break the same quantities down per queue so the
    benchmark harness and the utilization gauges can see how evenly a
    sharded flush spread its load.
    """

    reads: int = 0
    writes: int = 0
    #: ns this queue's channel spent transferring (utilization numerator)
    busy_ns: int = 0
    doorbells: int = 0
    #: ns submitters stalled waiting for a slot on this queue
    submit_stall_ns: int = 0
    bytes_written: int = 0


@dataclass
class IoStats:
    """Cumulative I/O counters for one device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: ns the device spent transferring data (utilization numerator).
    busy_ns: int = 0
    #: submission doorbells rung (a batch rings one for N commands)
    doorbells: int = 0
    #: writes submitted through :meth:`StorageDevice.write_batch`
    batched_writes: int = 0
    #: ns the submitter stalled waiting for a free queue slot
    submit_stall_ns: int = 0
    #: per-queue breakdown, index = queue id (see QueueIoStats)
    queues: list[QueueIoStats] = field(default_factory=list)


#: the unit a torn write lands in: a power cut mid-transfer leaves
#: whole sectors of new bytes, never a partial one
SECTOR = 512


@dataclass
class _PendingWrite:
    offset: int
    length: int
    #: the bytes the write replaced (its pre-image); None when it landed
    #: on blocks never written before, which read back as zeros
    old: Optional[bytes]
    #: its transfer onto the media runs from here to ``durable_at``
    transfer_at: int
    durable_at: int


@dataclass(frozen=True)
class BatchWrite:
    """One command of a batched submission (see ``write_batch``)."""

    offset: int
    data: bytes
    logical_nbytes: Optional[int] = None


@dataclass
class IoTicket:
    """Result of an I/O request: when it started and when it completes."""

    issued_at: int
    completes_at: int

    @property
    def latency_ns(self) -> int:
        return self.completes_at - self.issued_at


class StorageDevice:
    """A block/byte storage device with a latency+bandwidth cost model.

    Contents live in a sparse dict of 4 KiB blocks; unaligned extents
    are handled with read-modify-write so callers may use byte offsets.
    """

    def __init__(self, spec: DeviceSpec, clock: SimClock, name: str | None = None):
        self.spec = spec
        self.clock = clock
        self.name = name or spec.name
        nq = max(1, spec.num_queues)
        self.num_queues = nq
        self.stats = IoStats(queues=[QueueIoStats() for _ in range(nq)])
        self._blocks: dict[int, bytearray] = {}
        self._pending: list[_PendingWrite] = []
        #: per-queue channel serialization point (each submission
        #: queue is serviced as an independent channel)
        self._busy_until = [0] * nq
        #: per-queue completion times of commands in flight
        #: (queue-depth model bounds each queue independently)
        self._inflight: list[list[int]] = [[] for _ in range(nq)]
        self._used = 0
        self._failed = False
        #: error injection: fail the next N operations
        self._inject_failures = 0
        #: failpoint plane (repro.fault); None = zero-cost disarmed
        self.faults: Optional["FailpointRegistry"] = None

    # -- capacity --------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes of device capacity holding written data."""
        return self._used

    @property
    def capacity(self) -> int:
        return self.spec.capacity

    def inject_failures(self, count: int = 1) -> None:
        """Make the next ``count`` I/O operations raise ``DeviceIOError``."""
        self._inject_failures += count

    def attach_faults(self, registry: "FailpointRegistry") -> None:
        """Adopt a machine's failpoint registry (see FAULTS.md)."""
        self.faults = registry

    def _fire(self, name: str, **labels):
        """Evaluate a failpoint; translates machine-wide actions.

        ``crash`` unwinds as :class:`PowerCut` from any device site;
        other actions are returned for the caller to interpret.
        """
        if self.faults is None:
            return None
        action = self.faults.fire(name, device=self.name, **labels)
        if action is not None and action.kind == "crash":
            raise PowerCut(
                f"{self.name}: {action.reason or 'injected power cut'}",
                at_ns=self.clock.now,
            )
        return action

    # -- cost model ------------------------------------------------------

    def _check_queue(self, queue: int) -> None:
        if not 0 <= queue < self.num_queues:
            raise DeviceIOError(
                f"{self.name}: queue {queue} out of range "
                f"(device has {self.num_queues})"
            )

    def _ring_doorbell(self, queue: int = 0) -> None:
        """Charge the host-side submission cost for one doorbell.

        The submitting thread pays it synchronously (the clock moves),
        which is exactly what batching amortizes: one doorbell may
        carry many commands.
        """
        self.stats.doorbells += 1
        self.stats.queues[queue].doorbells += 1
        if self.spec.submit_cost_ns:
            self.clock.advance(self.spec.submit_cost_ns)

    def _wait_for_queue_slot(self, queue: int = 0) -> None:
        """Stall the submitter until ``queue`` has a free slot.

        With ``spec.queue_depth == 0`` the queue is unbounded and this
        is free.  Otherwise commands inside the limit overlap their
        media latencies and a full queue throttles the submitter to
        the device's completion rate.  Each submission queue has its
        own in-flight window.
        """
        qd = self.spec.queue_depth
        if qd <= 0:
            return
        now = self.clock.now
        inflight = sorted(c for c in self._inflight[queue] if c > now)
        if len(inflight) >= qd:
            free_at = inflight[len(inflight) - qd]
            self.stats.submit_stall_ns += free_at - now
            self.stats.queues[queue].submit_stall_ns += free_at - now
            self.clock.advance_to(free_at)
        self._inflight[queue] = [
            c for c in self._inflight[queue] if c > self.clock.now
        ]

    def _transfer_ns(self, nbytes: int, bandwidth: float) -> int:
        """Channel time one command of ``nbytes`` occupies."""
        return transfer_ns(nbytes, bandwidth) + self.spec.command_overhead_ns

    def _occupy(self, nbytes: int, latency_ns: int, bandwidth: float,
                queue: int = 0, release_ns: int | None = None) -> IoTicket:
        """Reserve channel time for one command and return its ticket.

        Each queue's channel serializes transfer time plus the
        per-command processing overhead; the fixed access latency
        overlaps across in-flight commands (bounded per queue by the
        queue depth, enforced by :meth:`_wait_for_queue_slot` before
        this runs).  Commands on *different* queues overlap fully —
        that is the multi-queue parallelism the sharded checkpoint
        flush exploits.

        ``release_ns`` is an ordering barrier: the command does not
        start before that virtual time, modelling a flush+write pair
        queued behind earlier completions (the superblock write uses
        it to stay after every shard's records without blocking the
        submitter).
        """
        issued = self.clock.now
        start = max(issued, self._busy_until[queue], release_ns or 0)
        xfer = self._transfer_ns(nbytes, bandwidth)
        completes = start + latency_ns + xfer
        self._busy_until[queue] = start + xfer
        self.stats.busy_ns += xfer
        self.stats.queues[queue].busy_ns += xfer
        if self.spec.queue_depth > 0:
            self._inflight[queue].append(completes)
        return IoTicket(issued_at=issued, completes_at=completes)

    def _check_fault(self) -> None:
        if self._failed:
            raise DeviceIOError(f"{self.name}: device is failed")
        if self._inject_failures > 0:
            self._inject_failures -= 1
            raise DeviceIOError(f"{self.name}: injected I/O failure")

    # -- data plane ------------------------------------------------------

    def _store(self, offset: int, data: bytes) -> None:
        pos = offset
        remaining = memoryview(bytes(data))
        while remaining.nbytes:
            block_no, within = divmod(pos, _BLOCK)
            chunk = min(_BLOCK - within, remaining.nbytes)
            block = self._blocks.get(block_no)
            if block is None:
                block = bytearray(_BLOCK)
                self._blocks[block_no] = block
                self._used += _BLOCK
            block[within : within + chunk] = remaining[:chunk]
            remaining = remaining[chunk:]
            pos += chunk

    def _load(self, offset: int, nbytes: int) -> bytes:
        first, skip = divmod(offset, _BLOCK)
        end = skip + nbytes
        get = self._blocks.get
        if end <= _BLOCK:
            return bytes(get(first, _UNWRITTEN)[skip:end])
        # Crosses a block: trim the first and the last, join once.
        more, last_byte = divmod(end - 1, _BLOCK)
        parts = [get(no, _UNWRITTEN) for no in range(first, first + more + 1)]
        parts[0] = parts[0][skip:]
        parts[-1] = parts[-1][: last_byte + 1]
        return b"".join(parts)

    # -- public I/O ------------------------------------------------------

    def read(self, offset: int, nbytes: int, logical_nbytes: int | None = None,
             queue: int = 0) -> bytes:
        """Synchronous read; advances the clock to completion.

        ``logical_nbytes`` inflates the *time* charged without changing
        the bytes returned: the simulation stores page payloads
        compactly but their on-media size is a full page.
        """
        ticket, data = self.read_async(
            offset, nbytes, logical_nbytes=logical_nbytes, queue=queue
        )
        self.clock.advance_to(ticket.completes_at)
        return data

    def read_async(self, offset: int, nbytes: int,
                   logical_nbytes: int | None = None,
                   queue: int = 0) -> tuple[IoTicket, bytes]:
        """Queue a read on ``queue``; returns (ticket, data) without
        advancing the clock past the submission costs.

        The restore path fans coalesced runs out across queues this
        way: it submits every run, then advances once to the max
        completion — reads on distinct queues overlap their transfers.
        """
        self._check_queue(queue)
        self._check_fault()
        action = self._fire(fault_names.FP_DEVICE_READ, nbytes=nbytes)
        if action is not None and action.kind == "fail":
            raise DeviceIOError(
                f"{self.name}: {action.reason or 'injected read failure'}"
            )
        if nbytes < 0 or offset < 0:
            raise DeviceIOError("negative read extent")
        self._ring_doorbell(queue)
        self._wait_for_queue_slot(queue)
        ticket = self._occupy(
            max(nbytes, logical_nbytes or 0),
            self.spec.read_latency_ns,
            self.spec.read_bandwidth,
            queue=queue,
        )
        self.stats.reads += 1
        self.stats.queues[queue].reads += 1
        self.stats.bytes_read += nbytes
        return ticket, self._load(offset, nbytes)

    def write(self, offset: int, data: bytes, logical_nbytes: int | None = None,
              queue: int = 0, release_ns: int | None = None) -> IoTicket:
        """Synchronous write; advances the clock to durability."""
        ticket = self.write_async(
            offset, data, logical_nbytes=logical_nbytes,
            queue=queue, release_ns=release_ns,
        )
        self.clock.advance_to(ticket.completes_at)
        return ticket

    def write_async(self, offset: int, data: bytes,
                    logical_nbytes: int | None = None,
                    queue: int = 0, release_ns: int | None = None) -> IoTicket:
        """Queue a write; returns its ticket without advancing the clock
        (except for the submission model's doorbell cost and queue-slot
        stalls, when the spec arms them).

        The data is visible to subsequent reads immediately (device
        buffer) but is only *durable* — i.e. survives :meth:`crash` —
        once the clock passes ``ticket.completes_at``.

        ``queue`` selects the submission queue (multi-queue devices
        service each as an independent channel).  ``release_ns`` is an
        ordering barrier: the command starts no earlier than that
        virtual time, which is how the superblock stays ordered after
        records submitted on *other* queues.

        Failpoint ``device.write`` fires before the media changes:
        ``crash`` unwinds (the write never happened), ``fail`` raises,
        ``torn`` lands only a prefix of the payload, and ``drop``
        acknowledges the write without touching the media at all.
        """
        self._check_queue(queue)
        self._check_fault()
        self._ring_doorbell(queue)
        return self._submit_write(offset, data, logical_nbytes,
                                  queue=queue, release_ns=release_ns)

    def write_batch(self, writes: Sequence[BatchWrite],
                    queue: int = 0) -> list[IoTicket]:
        """Submit several writes with one doorbell on ``queue``.

        The host-side submission cost is charged once for the whole
        batch; each element is still one device command — it fires the
        per-write failpoint, gets its own ticket, and occupies the
        queue's channel for its transfer — so up to ``spec.queue_depth``
        commands overlap their latencies.  Within one queue commands
        complete in submission order (constant write latency),
        preserving per-queue FIFO durability; ordering *across* queues
        is the caller's job (the object store barriers the superblock
        on every shard's completion with ``release_ns``).

        Failpoint ``device.write_batch`` fires once per doorbell,
        before any member command touches the media: a ``crash`` there
        is a power cut on the batch boundary.
        """
        self._check_queue(queue)
        self._check_fault()
        action = self._fire(
            fault_names.FP_DEVICE_BATCH, commands=len(writes), queue=queue
        )
        if action is not None and action.kind == "fail":
            raise DeviceIOError(
                f"{self.name}: {action.reason or 'injected batch-write failure'}"
            )
        if not writes:
            return []
        self._ring_doorbell(queue)
        tickets = []
        for write in writes:
            tickets.append(
                self._submit_write(
                    write.offset, write.data, write.logical_nbytes, queue=queue
                )
            )
            self.stats.batched_writes += 1
        return tickets

    def _submit_write(self, offset: int, data: bytes,
                      logical_nbytes: int | None = None,
                      queue: int = 0,
                      release_ns: int | None = None) -> IoTicket:
        """One write command: fault check, queue slot, occupy, buffer."""
        action = self._fire(fault_names.FP_DEVICE_WRITE, nbytes=len(data))
        if action is not None and action.kind == "fail":
            raise DeviceIOError(
                f"{self.name}: {action.reason or 'injected write failure'}"
            )
        if offset < 0:
            raise DeviceIOError("negative write offset")
        end = offset + len(data)
        if end > self.spec.capacity:
            raise DeviceFullError(
                f"{self.name}: write [{offset}, {end}) exceeds capacity {self.spec.capacity}"
            )
        self._wait_for_queue_slot(queue)
        nbytes = max(len(data), logical_nbytes or 0)
        ticket = self._occupy(
            nbytes,
            self.spec.write_latency_ns,
            self.spec.write_bandwidth,
            queue=queue,
            release_ns=release_ns,
        )
        if action is not None and action.kind == "torn":
            # Only a prefix reaches the media; the caller is not told.
            data = bytes(data)[: int(len(data) * action.fraction)]
        if action is None or action.kind != "drop":
            blocks = range(offset // _BLOCK, (offset + len(data) - 1) // _BLOCK + 1)
            old = (self._load(offset, len(data))
                   if any(block in self._blocks for block in blocks) else None)
            self._store(offset, data)
            # The transfer is the last stretch before completion, so a
            # write whose transfer ended is exactly a durable one.
            self._pending.append(_PendingWrite(
                offset=offset, length=len(data), old=old,
                durable_at=ticket.completes_at,
                transfer_at=ticket.completes_at
                - self._transfer_ns(nbytes, self.spec.write_bandwidth),
            ))
        self.stats.writes += 1
        self.stats.queues[queue].writes += 1
        self.stats.bytes_written += max(len(data), logical_nbytes or 0)
        self.stats.queues[queue].bytes_written += max(len(data), logical_nbytes or 0)
        return ticket

    def flush_barrier(self) -> int:
        """Advance the clock until every queued write is durable.

        Returns the time at which the device became idle.  This is the
        device-level primitive behind ``sls_barrier``.
        """
        action = self._fire(fault_names.FP_DEVICE_FLUSH)
        if action is not None:
            if action.kind == "fail":
                raise DeviceIOError(
                    f"{self.name}: {action.reason or 'injected flush failure'}"
                )
            if action.kind == "drop":
                # The flush is acknowledged but nothing drains: queued
                # writes stay in flight and a later crash tears them.
                return self.clock.now
        deadline = self.clock.now
        for pending in self._pending:
            deadline = max(deadline, pending.durable_at)
        self.clock.advance_to(deadline)
        self._retire_pending()
        return deadline

    def _retire_pending(self) -> None:
        now = self.clock.now
        self._pending = [p for p in self._pending if p.durable_at > now]

    def pending_writes(self) -> int:
        """Number of writes not yet durable at the current time."""
        self._retire_pending()
        return len(self._pending)

    def pending_deadline(self) -> int:
        """Virtual time when everything currently queued is durable."""
        self._retire_pending()
        if not self._pending:
            return self.clock.now
        return max(p.durable_at for p in self._pending)

    def idlest_queue(self) -> int:
        """The submission queue whose channel frees up earliest.

        Background work (the online scrub) issues its reads here so it
        soaks up idle multi-queue bandwidth instead of piling onto a
        channel the foreground persist path is still draining.  Ties
        break toward the lowest queue id for determinism.
        """
        return min(range(self.num_queues),
                   key=lambda q: (self._busy_until[q], q))

    # -- failure model ---------------------------------------------------

    def crash(self) -> int:
        """Simulate a power failure at the current instant.

        In-flight (non-durable) writes unwind, newest first, to what
        the media held before them: a command whose transfer had not
        begun reverts entirely, one caught mid-transfer keeps the whole
        sectors of new bytes its elapsed transfer time covers over the
        old tail — a real device never zeroes a sector it has not begun
        to program.  If the device is volatile (``spec.persistent ==
        False``) all contents are lost.  Returns the number of writes
        torn.
        """
        self._retire_pending()
        lost = len(self._pending)
        now = self.clock.now
        for inflight in self._inflight:
            inflight.clear()
        self._busy_until = [now] * self.num_queues
        if not self.spec.persistent:
            self._blocks.clear()
            self._used = 0
            self._pending.clear()
            return lost
        for pending in reversed(self._pending):
            old = bytes(pending.length) if pending.old is None else pending.old
            landed = 0
            if now > pending.transfer_at:
                landed = (pending.length * (now - pending.transfer_at)
                          // (pending.durable_at - pending.transfer_at)
                          // SECTOR * SECTOR)
            self._store(pending.offset + landed, old[landed:])
        self._pending.clear()
        return lost

    def utilization(self, window_ns: int) -> float:
        """Fraction of aggregate channel time spent transferring.

        Multi-queue devices have ``num_queues`` channels' worth of
        capacity per wall-clock nanosecond, so the denominator scales
        with the queue count.
        """
        if window_ns <= 0:
            return 0.0
        return min(1.0, self.stats.busy_ns / (window_ns * self.num_queues))

    def queue_utilization_permille(self, queue: int, window_ns: int) -> int:
        """Integer permille of ``window_ns`` that ``queue``'s channel
        spent transferring (integer for byte-stable metric export)."""
        self._check_queue(queue)
        if window_ns <= 0:
            return 0
        return min(1000, self.stats.queues[queue].busy_ns * 1000 // window_ns)

    def __repr__(self) -> str:
        return f"<StorageDevice {self.name!r} used={self._used}B>"
