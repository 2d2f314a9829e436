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

The media are held as the pieces written, no more: a range never
written (or discarded) holds no host memory and reads as zeros.
:meth:`StorageDevice.discard` and :meth:`StorageDevice.flip` are the
operations outside the model.  ``discard`` lets the simulator forget
bytes that are durable and dead, so host memory follows the live set
rather than everything ever written; ``flip`` is media decay.  Neither
issues a command or costs time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import DeviceFullError, DeviceIOError
from repro.fault import names as fault_names
from repro.hw.specs import DeviceSpec
from repro.sim.clock import SimClock
from repro.units import transfer_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.fault.registry import FailpointRegistry

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


def landed_bytes(length: int, transfer_at: int, durable_at: int,
                 at: int) -> int:
    """The tear rule: how many of a write's ``length`` bytes are on the
    media at ``at`` — all once durable, none before its transfer
    begins, and in between the whole sectors its elapsed transfer
    covers (a power cut never leaves a partial sector)."""
    if at >= durable_at:
        return length
    if at <= transfer_at:
        return 0
    return length * (at - transfer_at) // (durable_at - transfer_at) // SECTOR * SECTOR


@dataclass
class _PendingWrite:
    offset: int
    length: int
    #: its pre-image: the ``(start, piece)`` pairs the write overlapped,
    #: each whole; a range none of them covers was unwritten
    old: list[tuple[int, bytes]]
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

    Contents live in an extent map of the pieces written: immutable
    ``bytes`` keyed by start offset, with the starts kept sorted for
    ``bisect``.  A write cuts whatever it overlaps and lands as one
    piece, so callers may use any byte offsets and the host holds
    exactly the bytes written and not yet discarded
    (:attr:`held_bytes`): simulator memory, invisible to the cost model.
    """

    def __init__(self, spec: DeviceSpec, clock: SimClock, name: str | None = None):
        self.spec = spec
        self.clock = clock
        self.name = name or spec.name
        nq = max(1, spec.num_queues)
        self.num_queues = nq
        self.stats = IoStats(queues=[QueueIoStats() for _ in range(nq)])
        #: the written pieces, start -> bytes; disjoint, never empty
        self._pieces: dict[int, bytes] = {}
        self._starts: list[int] = []
        self._pending: list[_PendingWrite] = []
        #: per-queue channel serialization point (each submission
        #: queue is serviced as an independent channel)
        self._busy_until = [0] * nq
        #: per-queue completion times of commands in flight
        #: (queue-depth model bounds each queue independently)
        self._inflight: list[list[int]] = [[] for _ in range(nq)]
        self._failed = False
        #: error injection: fail the next N operations
        self._inject_failures = 0
        #: failpoint plane (repro.fault); None = zero-cost disarmed
        self.faults: Optional["FailpointRegistry"] = None
        #: the write trace, once a caller sets it to a list (the crash
        #: sweep does): each write that reaches the media appends
        #: ``(offset, landed bytes, transfer_at, durable_at)``, each
        #: discard ``(at, offset, nbytes)``; :meth:`replay` rebuilds
        #: the media a power cut at any instant would leave
        self.trace: Optional[list] = None

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
        """Evaluate a failpoint; the action is returned for the caller
        to interpret.  The hot sites (a read, each write command) check
        ``faults.active`` themselves, so a disarmed plane makes no call
        there."""
        faults = self.faults
        if faults is None or not faults.active:
            return None
        return faults.fire(name, device=self.name, **labels)

    # -- the command routine ---------------------------------------------

    def _check_queue(self, queue: int) -> None:
        if not 0 <= queue < self.num_queues:
            raise DeviceIOError(
                f"{self.name}: queue {queue} out of range "
                f"(device has {self.num_queues})"
            )

    def _submit(self, queue: int, writes: Optional[Sequence[BatchWrite]],
                offset: int = 0, nbytes: int = 0,
                logical_nbytes: Optional[int] = None, *, batch: bool = False,
                release_ns: Optional[int] = None) -> list[tuple[int, int]]:
        """The device's one command routine; returns each command's
        ``(issued, completes)`` virtual times.

        ``writes is None`` submits one read of ``nbytes`` at ``offset``
        (failpoint ``device.read`` fires before its doorbell);
        otherwise each of ``writes`` is one write command, all behind
        one doorbell (``batch`` fires ``device.write_batch`` before it).
        In order: queue range check, fault check, the doorbell, then
        per command its queue-depth slot wait, channel occupancy and
        stats — and for a write, failpoint ``device.write`` before the
        slot wait and the media update after the occupancy.

        The cost model:

        - **doorbell** — the host-side submission cost, paid by the
          submitter synchronously (the clock moves), once per doorbell:
          what batching amortizes;
        - **slot wait** — with ``spec.queue_depth > 0`` a queue holds
          that many commands in flight and a full one stalls the
          submitter until its oldest completes (each queue has its own
          window; ``queue_depth == 0`` is unbounded and free);
        - **occupancy** — each queue's channel serializes transfer time
          plus the per-command overhead, while the fixed access latency
          overlaps across the commands in flight.  Commands on
          *different* queues overlap fully: the multi-queue parallelism
          the sharded flush and the restore fan-out exploit.
          ``release_ns`` is an ordering barrier: no command starts
          before that virtual time (the superblock stays after every
          shard's records without blocking the submitter).
        """
        self._check_queue(queue)
        if self._failed:
            raise DeviceIOError(f"{self.name}: device is failed")
        if self._inject_failures > 0:
            self._inject_failures -= 1
            raise DeviceIOError(f"{self.name}: injected I/O failure")
        spec = self.spec
        stats = self.stats
        qstats = stats.queues[queue]
        if writes is None:
            if self.faults is not None and self.faults.active:
                action = self._fire(fault_names.FP_DEVICE_READ, nbytes=nbytes)
                if action is not None and action.kind == "fail":
                    raise DeviceIOError(
                        f"{self.name}: {action.reason or 'injected read failure'}"
                    )
            if nbytes < 0 or offset < 0:
                raise DeviceIOError("negative read extent")
            commands: Sequence[Optional[BatchWrite]] = (None,)
            latency, bandwidth = spec.read_latency_ns, spec.read_bandwidth
            size = max(nbytes, logical_nbytes or 0)
        else:
            if batch:
                action = self._fire(
                    fault_names.FP_DEVICE_BATCH, commands=len(writes), queue=queue
                )
                if action is not None and action.kind == "fail":
                    raise DeviceIOError(
                        f"{self.name}: {action.reason or 'injected batch-write failure'}"
                    )
                if not writes:
                    return []
            commands = writes
            latency, bandwidth = spec.write_latency_ns, spec.write_bandwidth
        clock = self.clock
        stats.doorbells += 1
        qstats.doorbells += 1
        if spec.submit_cost_ns:
            clock.advance(spec.submit_cost_ns)
        qd = spec.queue_depth
        faults = self.faults
        out = []
        for write in commands:
            if write is not None:
                action = None
                if faults is not None and faults.active:
                    action = self._fire(fault_names.FP_DEVICE_WRITE, nbytes=len(write.data))
                if action is not None and action.kind == "fail":
                    raise DeviceIOError(
                        f"{self.name}: {action.reason or 'injected write failure'}"
                    )
                offset, data = write.offset, write.data
                if offset < 0:
                    raise DeviceIOError("negative write offset")
                end = offset + len(data)
                if end > spec.capacity:
                    raise DeviceFullError(
                        f"{self.name}: write [{offset}, {end}) exceeds capacity {spec.capacity}"
                    )
                size = max(len(data), write.logical_nbytes or 0)
            if qd > 0:
                now = clock.now
                inflight = [c for c in self._inflight[queue] if c > now]
                if len(inflight) >= qd:
                    inflight.sort()
                    free_at = inflight[len(inflight) - qd]
                    stats.submit_stall_ns += free_at - now
                    qstats.submit_stall_ns += free_at - now
                    clock.advance_to(free_at)
                    inflight = [c for c in inflight if c > free_at]
                self._inflight[queue] = inflight
            issued = clock.now
            start = max(issued, self._busy_until[queue], release_ns or 0)
            xfer = transfer_ns(size, bandwidth) + spec.command_overhead_ns
            completes = start + latency + xfer
            self._busy_until[queue] = start + xfer
            stats.busy_ns += xfer
            qstats.busy_ns += xfer
            if qd > 0:
                self._inflight[queue].append(completes)
            out.append((issued, completes))
            if write is None:
                stats.reads += 1
                qstats.reads += 1
                stats.bytes_read += nbytes
                continue
            if action is not None and action.kind == "torn":
                # Only a prefix reaches the media; the caller is not told.
                data = bytes(data)[: int(len(data) * action.fraction)]
            if action is None or action.kind != "drop":
                old = self._store(offset, data)
                # The transfer is the last stretch before completion, so a
                # write whose transfer ended is exactly a durable one.
                self._pending.append(_PendingWrite(
                    offset=offset, length=len(data), old=old,
                    durable_at=completes, transfer_at=completes - xfer,
                ))
                if self.trace is not None:
                    self.trace.append(
                        (offset, bytes(data), completes - xfer, completes)
                    )
            written = max(len(data), write.logical_nbytes or 0)
            stats.writes += 1
            qstats.writes += 1
            stats.bytes_written += written
            qstats.bytes_written += written
            if batch:
                stats.batched_writes += 1
        return out

    # -- data plane ------------------------------------------------------

    def _cut(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        """Remove ``[lo, hi)`` from the media and return the pieces that
        overlapped it, whole; a remnant outside it is a fresh slice."""
        starts, pieces = self._starts, self._pieces
        i = bisect_right(starts, lo) - 1
        if i < 0 or starts[i] + len(pieces[starts[i]]) <= lo:
            i += 1
        j = bisect_left(starts, hi, i)
        if lo >= hi or i == j:
            return []
        cut = [(start, pieces.pop(start)) for start in starts[i:j]]
        keep = []
        first, piece = cut[0]
        if first < lo:
            keep.append((first, piece[: lo - first]))
        last, piece = cut[-1]
        if last + len(piece) > hi:
            keep.append((hi, piece[hi - last :]))
        starts[i:j] = [start for start, _ in keep]
        pieces.update(keep)
        return cut

    def _store(self, offset: int, data: bytes) -> list[tuple[int, bytes]]:
        """Land ``data`` at ``offset``; returns the pieces it overlapped."""
        data = bytes(data)
        old = self._cut(offset, offset + len(data))
        if data:
            insort(self._starts, offset)
            self._pieces[offset] = data
        return old

    def discard(self, offset: int, nbytes: int) -> None:
        """Forget ``nbytes`` at ``offset``: the range reads back as never
        written, and the host keeps none of its bytes.

        Simulator memory, not a modelled TRIM: no command, no virtual
        time, no :class:`IoStats` change and no failpoint.  Only bytes
        that are durable and dead may go, so a range that overlaps a
        write not yet durable — one :meth:`crash` could still unwind —
        raises :class:`DeviceIOError`.
        """
        end = offset + nbytes
        now = self.clock.now
        for pending in self._pending:
            if (pending.durable_at > now and pending.offset < end
                    and offset < pending.offset + pending.length):
                raise DeviceIOError(
                    f"{self.name}: discard [{offset}, {end}) overlaps a write "
                    f"that is not yet durable"
                )
        if self.trace is not None:
            self.trace.append((now, offset, nbytes))
        self._cut(offset, end)

    def flip(self, offset: int, mask: int = 0xFF) -> None:
        """XOR the media byte at ``offset`` with ``mask``: decay, outside
        the model like :meth:`discard` (no command, no virtual time, no
        :class:`IoStats` change, no failpoint).  A byte never written
        reads as zero, so flipping it makes it written."""
        self._store(offset, bytes((self._load(offset, 1)[0] ^ mask,)))

    @property
    def held_bytes(self) -> int:
        """Host bytes the media hold: the written, undiscarded bytes."""
        return sum(map(len, self._pieces.values()))

    def _load(self, offset: int, nbytes: int) -> bytes:
        end = offset + nbytes
        starts, pieces = self._starts, self._pieces
        i = max(bisect_right(starts, offset) - 1, 0)
        j = bisect_left(starts, end, i)
        if j - i == 1:
            start = starts[i]
            piece = pieces[start]
            if start <= offset and end <= start + len(piece):
                # The common case, a record read: inside one piece (a
                # slice of all of it is the piece itself, not a copy).
                return piece[offset - start : end - start]
        # Across pieces and holes: join once, zeros in the gaps.
        parts, pos = [], offset
        for start in starts[i:j]:
            piece = pieces[start]
            lo, hi = max(start, pos), min(start + len(piece), end)
            if lo < hi:
                parts += (bytes(lo - pos), piece[lo - start : hi - start])
                pos = hi
        parts.append(bytes(end - pos))
        return b"".join(parts)

    # -- public I/O ------------------------------------------------------

    def read(self, offset: int, nbytes: int, logical_nbytes: int | None = None,
             queue: int = 0) -> bytes:
        """Synchronous read; advances the clock to completion.

        ``logical_nbytes`` inflates the *time* charged without changing
        the bytes returned: the simulation stores page payloads
        compactly but their on-media size is a full page.
        """
        ((_issued, completes),) = self._submit(
            queue, None, offset, nbytes, logical_nbytes
        )
        self.clock.advance_to(completes)
        return self._load(offset, nbytes)

    def read_async(self, offset: int, nbytes: int,
                   logical_nbytes: int | None = None,
                   queue: int = 0) -> tuple[IoTicket, bytes]:
        """Queue a read on ``queue``; returns (ticket, data) without
        advancing the clock past the submission costs.

        The restore path fans coalesced runs out across queues this
        way: it submits every run, then advances once to the max
        completion — reads on distinct queues overlap their transfers.
        """
        ((issued, completes),) = self._submit(
            queue, None, offset, nbytes, logical_nbytes
        )
        return IoTicket(issued, completes), self._load(offset, nbytes)

    def write(self, offset: int, data: bytes, logical_nbytes: int | None = None,
              queue: int = 0, release_ns: int | None = None) -> IoTicket:
        """Synchronous write; advances the clock to durability."""
        ((issued, completes),) = self._submit(
            queue, (BatchWrite(offset, data, logical_nbytes),), release_ns=release_ns
        )
        self.clock.advance_to(completes)
        return IoTicket(issued, completes)

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
        ``fail`` raises (the write never happened), ``torn`` lands only
        a prefix of the payload, and ``drop`` acknowledges the write
        without touching the media at all.
        """
        ((issued, completes),) = self._submit(
            queue, (BatchWrite(offset, data, logical_nbytes),), release_ns=release_ns
        )
        return IoTicket(issued, completes)

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
        before any member command touches the media: a ``fail`` there
        submits none of the batch.
        """
        return [IoTicket(issued, completes)
                for issued, completes in self._submit(queue, writes, batch=True)]

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
            self._pieces.clear()
            self._starts.clear()
            self._pending.clear()
            return lost
        self._tear(now)
        return lost

    def replay(self, trace: list, at: int) -> None:
        """Land another device's ``trace`` (see :attr:`trace`) on these
        media as a power cut at ``at`` left it: every write as
        submitted and every discard made by ``at``, then the writes not
        yet durable torn exactly as :meth:`crash` tears them."""
        for entry in trace:
            if len(entry) == 3:
                instant, offset, nbytes = entry
                if instant <= at:
                    self._cut(offset, offset + nbytes)
                continue
            offset, data, transfer_at, durable_at = entry
            self._pending.append(_PendingWrite(
                offset=offset, length=len(data), old=self._store(offset, data),
                transfer_at=transfer_at, durable_at=durable_at,
            ))
        self._tear(at)

    def _tear(self, at: int) -> None:
        """Unwind, newest first, each pending write to its pre-image
        beyond the bytes it had landed by ``at`` (:func:`landed_bytes`)."""
        for pending in reversed(self._pending):
            lo, hi = pending.offset, pending.offset + pending.length
            lo += landed_bytes(pending.length, pending.transfer_at,
                               pending.durable_at, at)
            if lo == hi:
                continue
            self._cut(lo, hi)
            for start, piece in pending.old:
                piece = piece[max(lo - start, 0) : hi - start]
                if piece:
                    self._store(max(start, lo), piece)
        self._pending.clear()

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
        return f"<StorageDevice {self.name!r}>"
