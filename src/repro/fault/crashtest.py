"""The crash-consistency sweep behind ``sls crashtest``.

Aurora's contract is that a power cut costs at most the last
checkpoint interval.  This harness checks the reproduction keeps that
promise at every instant of a fixed checkpoint/restore workload — SLS
checkpoints, SLSFS snapshots, ``sls_ntflush`` log appends, a snapshot
deletion whose extents a later commit point reclaims, a checkpoint
whose flush puts one long run on a queue other than the superblock's,
then an online scrub pass.  It runs the workload once with the
device's write trace on (:attr:`~repro.hw.device.StorageDevice.trace`)
and takes every instant at which a power cut would leave different
media: each transfer's start and completion, each whole-sector
boundary inside a transfer, and each discard.  For each instant it replays the trace on
a fresh device, torn as :meth:`~repro.hw.device.StorageDevice.crash`
tears it, and for each distinct media state it recovers a fresh store
from the raw bytes and asserts four oracles:

1. **prefix consistency** — the recovered snapshot directory equals,
   *exactly*, the directory as it stood at the recovered superblock
   generation (the workload records every generation as it is
   written).  The superblock's cross-queue barrier makes this strict:
   if superblock generation *g* survived, every write it names
   survived too, so recovery discards nothing and invents nothing.
2. **no leaked extents** — the rebuilt allocator's ``allocated_bytes``
   equals the byte-sum of the unique extents reachable from the
   recovered snapshots plus the garbage a superblock slot still names,
   and its free-list invariants hold.
3. **restorable latest image** — the newest recovered SLS snapshot
   restores onto a fresh kernel, and the restored heap bytes match
   what the workload wrote before that checkpoint.  The persistent
   log, reopened on its known region, scans back exactly the records
   whose synchronous append had returned by the instant of the cut.
4. **fsck clean or exactly repaired** — ``repair_store`` on a second
   fresh store walks every snapshot with full checksum verification;
   every finding must be repaired, and a second fsck of the repaired
   store must report nothing (see RECOVERY.md).

Everything is deterministic: the workload takes no wall-clock input
and no fault is armed, so one run's trace, its instants and its
states are the same every time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.backends import make_disk_backend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.hw.device import SECTOR, landed_bytes
from repro.hw.nvme import NvmeDevice
from repro.objstore.alloc import Extent
from repro.objstore.fsck import check_store, repair_store
from repro.objstore.log import PersistentLog
from repro.objstore.scrub import Scrubber
from repro.objstore.record import decode
from repro.objstore.snapshot import SnapshotDirectory
from repro.objstore.store import ObjectStore
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.posix.vnode import VfsNamespace
from repro.sim.clock import SimClock
from repro.slsfs.fs import SlsFS
from repro.units import GIB, KIB, PAGE_SIZE

LOG_OWNER_OID = 7777
HEAP_PAGES = 24
CHECKPOINTS = 5
#: extents per scrub step in the workload's post-barrier scrub pass
SCRUB_BATCH = 16

#: The number of distinct media states the sweep checks.  This is THE
#: pin: the CI job passes ``--expect-points pinned`` and ``run_sweep``
#: itself fails loudly when the count drifts from it — a workload or
#: write-path change that adds or removes reachable states means
#: updating exactly this constant.
EXPECTED_CRASH_POINTS = 135


@dataclass
class WorkloadState:
    """Ground truth the oracles compare recovery against, recorded as
    the workload runs."""

    #: superblock generation -> sorted snapshot names at that generation
    history: dict[int, list[str]] = field(default_factory=lambda: {0: []})
    #: SLS checkpoint name -> {heap page index: bytes expected at page start}
    heap_expect: dict[str, dict[int, bytes]] = field(default_factory=dict)
    heap_start: int = 0
    #: ``(instant it returned, payload)`` of each synchronous (durable)
    #: log append
    log_appended: list[tuple[int, bytes]] = field(default_factory=list)
    log_region: Optional[Extent] = None
    #: checksum errors the workload's own scrub pass found (golden: 0)
    scrub_errors: int = 0
    completed: bool = False


@dataclass
class CrashPointResult:
    """One distinct media state: what a power cut at ``at_ns`` left."""

    at_ns: int
    #: the writes durable at ``at_ns``, numbered from 0 in submission order
    durable: list[int] = field(default_factory=list)
    #: ``(number, bytes landed)`` of each write caught mid-transfer
    torn: list[tuple[int, int]] = field(default_factory=list)
    generation: int = 0
    snapshots_recovered: int = 0
    #: fsck oracle: findings on the crashed medium, how many repaired
    fsck_findings: int = 0
    fsck_repaired: int = 0
    #: full structured FsckReport (CI uploads these as artifacts)
    fsck_report: Optional[dict] = None
    failures: list[str] = field(default_factory=list)


@dataclass
class SweepReport:
    points: list[CrashPointResult] = field(default_factory=list)
    #: the one run's trace: writes that reached the media, discards
    writes: int = 0
    discards: int = 0
    #: instants at which a cut changes the media (before de-duplication)
    instants: int = 0
    #: set when the state count diverges from the EXPECTED_CRASH_POINTS
    #: pin (counts as a failure)
    width_drift: Optional[str] = None

    @property
    def failures(self) -> list[str]:
        out = [
            f"t={p.at_ns}ns: {msg}"
            for p in self.points
            for msg in p.failures
        ]
        if self.width_drift:
            out.append(self.width_drift)
        return out

    def summary(self) -> str:
        torn = sum(1 for p in self.points if p.torn)
        lines = [
            f"crash sweep: one run, {self.writes} device writes and "
            f"{self.discards} discards",
            f"  {self.instants} instants -> {len(self.points)} distinct "
            f"media states ({torn} cut a write mid-transfer)",
        ]
        repaired = sum(p.fsck_findings for p in self.points)
        if self.failures:
            lines.append(f"FAILURES ({len(self.failures)}):")
            lines.extend(f"  {f}" for f in self.failures)
        else:
            lines.append(
                "all recoveries prefix-consistent, leak-free, restorable; "
                f"fsck clean or exactly repaired ({repaired} findings repaired)"
            )
        return "\n".join(lines)


def _device(clock: SimClock) -> NvmeDevice:
    # Multi-queue with a bounded in-flight window: the workload's
    # checkpoints flush through the sharded parallel path, so the
    # trace holds cuts between shards on different queues and the
    # recovery oracles prove the superblock barrier holds across them.
    return NvmeDevice(clock, name="crash-nvme", queue_depth=8, num_queues=4)


def _boot() -> tuple[Kernel, NvmeDevice]:
    kernel = Kernel(hostname="crashtest", memory_bytes=1 * GIB)
    return kernel, _device(kernel.clock)


def _record_superblocks(state: WorkloadState, store: ObjectStore) -> None:
    """Record every (generation -> directory) the workload writes, by
    decoding the superblock payload itself — caller-agnostic, so it
    also sees superblocks written inside SLSFS syncs and deletions."""
    volume = store.volume
    original = volume.write_superblock

    def recording(payload_value: bytes):
        ticket = original(payload_value)
        directory = SnapshotDirectory.decode(decode(payload_value))
        state.history[volume.generation] = sorted(
            s.name for s in directory.snapshots.values()
        )
        return ticket

    volume.write_superblock = recording


def run_workload(kernel: Kernel, device: NvmeDevice,
                 state: WorkloadState) -> WorkloadState:
    """The swept workload: checkpoints + log appends + SLSFS snapshots
    + one deletion + a checkpoint of every page + a scrub pass.  Fills
    ``state`` in place with the ground truth the oracles check each
    crash state against."""
    sls = SLS(kernel)
    proc = kernel.spawn("crashtest-app")
    sysc = Syscalls(kernel, proc)
    heap = sysc.mmap(HEAP_PAGES * PAGE_SIZE, name="heap")
    sysc.populate(
        heap.start, HEAP_PAGES * PAGE_SIZE, fill_fn=lambda i: b"seed-%d" % i
    )
    state.heap_start = heap.start

    group = sls.persist(proc, name="crashtest")
    backend = make_disk_backend(kernel, device)
    group.attach(backend)
    store = backend.store
    _record_superblocks(state, store)

    fs = SlsFS(store, kernel.registry)
    vfs = VfsNamespace(fs)
    log = PersistentLog(store, LOG_OWNER_OID, capacity=64 * KIB)
    state.log_region = log.region

    expect = {i: b"seed-%d" % i for i in range(HEAP_PAGES)}
    fs_snapshots: list[int] = []
    for i in range(CHECKPOINTS):
        page = i % HEAP_PAGES
        value = b"ck-%d" % i
        sysc.poke(heap.start + page * PAGE_SIZE, value)
        expect[page] = value
        name = f"ckpt-{i}"
        sls.checkpoint(group, name=name)
        state.heap_expect[name] = dict(expect)

        entry = b"entry-%d" % i
        log.append(entry, sync=True)
        state.log_appended.append((kernel.clock.now, entry))

        handle = vfs.open(f"/file-{i}", O_RDWR | O_CREAT)
        handle.write(b"fsdata-%d" % i)
        fs_snapshots.append(fs.sync(name=f"fs-{i}").snap_id)

        if i == 2:
            # Delete the oldest SLSFS snapshot, durably: the commit
            # points after the next superblock reclaim its extents.
            store.delete_snapshot(fs_snapshots.pop(0))
            store.flush_barrier()
    # One checkpoint that dirties every page: a whole random page on
    # every fourth, a few bytes on the rest.  The flush's rotation puts
    # the whole pages on queue 1 as one long run while queue 0 carries
    # short records, so queue 0 drains first and only the superblock's
    # cross-queue barrier keeps it from landing before the long run.
    rng = random.Random(CHECKPOINTS)
    for page in range(HEAP_PAGES):
        value = (rng.randbytes(PAGE_SIZE) if page % 4 == 1
                 else b"all-%d" % page)
        sysc.poke(heap.start + page * PAGE_SIZE, value)
        expect[page] = value
    name = f"ckpt-{CHECKPOINTS}"
    sls.checkpoint(group, name=name)
    state.heap_expect[name] = dict(expect)
    sls.barrier(group)
    # Online scrub over everything just written: it only reads, so the
    # states after the barrier must stay as clean as the run itself.
    scrubber = Scrubber(store, batch_extents=SCRUB_BATCH)
    scrubber.run()
    state.scrub_errors = scrubber.stats.errors
    state.completed = True
    return state


def _referenced_extents(store: ObjectStore) -> dict[int, int]:
    """offset -> length of every unique extent reachable from the
    recovered directory (manifests, their lineages' manifests, metadata
    records, pages)."""
    seen: dict[int, int] = {}
    for snapshot in store.snapshots():
        manifest = store.load_manifest(snapshot)
        for extent in [snapshot.manifest_extent, *manifest.lineage]:
            if extent.offset in seen:
                continue
            seen[extent.offset] = extent.length
            table = (manifest if extent == snapshot.manifest_extent
                     else store.read_manifest(extent)).pages
            for _hash, offset, length, _page_length in table.rows():
                seen[offset] = length
        for ref in manifest.records:
            seen[ref.extent.offset] = ref.extent.length
    return seen


def verify_recovery(state: WorkloadState, device: NvmeDevice,
                    point: CrashPointResult) -> None:
    """Run oracles 1-3 against a store freshly recovered from ``device``."""
    store = ObjectStore(device)
    report = store.recover()
    point.generation = report.generation
    point.snapshots_recovered = report.snapshots_recovered

    # Oracle 1: prefix consistency, strict under FIFO durability.
    if report.snapshots_discarded:
        point.failures.append(
            f"recovery discarded {report.snapshots_discarded} snapshots "
            f"at generation {report.generation}: {report.errors}"
        )
    expected = state.history.get(report.generation)
    if expected is None:
        point.failures.append(
            f"recovered unknown superblock generation {report.generation}"
        )
        return
    names = sorted(s.name for s in store.snapshots())
    if names != expected:
        point.failures.append(
            f"directory at generation {report.generation} diverged: "
            f"recovered {names}, workload wrote {expected}"
        )

    # Oracle 2: no leaked extents (audit before the log region is
    # re-reserved — logs are not snapshot-referenced by design).
    referenced = sum(_referenced_extents(store).values())
    garbage = sum(extent.length for extent in store.garbage)
    if store.allocator.allocated_bytes != referenced + garbage:
        point.failures.append(
            f"extent leak: allocator holds {store.allocator.allocated_bytes} B "
            f"but snapshots reference {referenced} B and garbage is {garbage} B"
        )
    try:
        store.allocator.check_invariants()
    except AssertionError as exc:
        point.failures.append(f"allocator invariants violated: {exc}")

    # Oracle 3a: the log scans back exactly the appends acknowledged
    # by the instant of the cut.
    if state.log_region is not None:
        reopened = PersistentLog(store, LOG_OWNER_OID, region=state.log_region)
        scanned = [payload for _seq, payload in reopened.scan_region()]
        acked = [payload for at, payload in state.log_appended
                 if at <= point.at_ns]
        if scanned != acked:
            point.failures.append(
                f"log prefix mismatch: scanned {scanned}, "
                f"acknowledged appends were {acked}"
            )

    # Oracle 3b: the newest recovered SLS image restores and its heap
    # holds what the workload had written by that checkpoint.
    group_snaps = [
        s for s in store.snapshots() if s.name.startswith("ckpt-")
    ]
    if not group_snaps:
        return
    latest = group_snaps[-1]
    restored_kernel = Kernel(
        hostname="restored", memory_bytes=1 * GIB, clock=device.clock
    )
    sls = SLS(restored_kernel)
    try:
        image = load_image_from_store(store, latest)
        procs, _metrics = sls.restore(image, backend_name="disk0")
    except Exception as exc:  # any failure to restore is a finding
        point.failures.append(f"restore of {latest.name!r} failed: {exc}")
        return
    sysc = Syscalls(restored_kernel, procs[0])
    for page, content in state.heap_expect[latest.name].items():
        got = sysc.peek(state.heap_start + page * PAGE_SIZE, len(content))
        if got != content:
            point.failures.append(
                f"restored heap page {page} of {latest.name!r}: "
                f"read {got!r}, expected {content!r}"
            )


def _verify_fsck(device: NvmeDevice, point: CrashPointResult) -> None:
    """Oracle 4: the crashed medium fscks clean, or fsck repairs it.

    ``repair_store`` on a fresh store walks superblock → snapshots →
    records → extents with full checksum verification — strictly more
    paranoid than ``recover()``, which trusts whatever verifies and
    discards the rest.  The contract: zero unrepaired findings, and a
    second (read-only) pass over the repaired store — now with the
    allocator/refcount cross-checks live — finds nothing (repair is
    idempotent).
    """
    store = ObjectStore(device)
    try:
        report = repair_store(store)
    except Exception as exc:
        point.failures.append(f"fsck repair raised: {exc}")
        return
    point.fsck_findings = len(report.findings)
    point.fsck_repaired = sum(1 for f in report.findings if f.repaired)
    point.fsck_report = report.to_dict()
    unrepaired = [f for f in report.findings if not f.repaired]
    if unrepaired:
        point.failures.append(
            f"fsck could not repair {len(unrepaired)} findings: "
            + "; ".join(f"{f.kind}: {f.detail}" for f in unrepaired)
        )
        return
    second = check_store(store)
    if not second.clean:
        point.failures.append(
            f"fsck repair not idempotent: second pass found "
            + "; ".join(f"{f.kind}: {f.detail}" for f in second.findings)
        )


def _instants(trace: list) -> list[int]:
    """Every instant at which a power cut changes what the trace leaves
    on the media: each transfer's start and completion, each instant a
    transfer lands one more whole sector (the inverse of
    :func:`~repro.hw.device.landed_bytes`), and each discard."""
    instants = set()
    for entry in trace:
        if len(entry) == 3:
            instants.add(entry[0])
            continue
        _offset, data, transfer_at, durable_at = entry
        instants.update((transfer_at, durable_at))
        span = durable_at - transfer_at
        for sectors in range(1, -(-len(data) // SECTOR)):
            instants.add(transfer_at - (-sectors * SECTOR * span // len(data)))
    return sorted(instants)


def _spans(writes: list) -> list[tuple[int, int]]:
    """The merged byte ranges the writes cover: all a replay can hold."""
    spans: list[tuple[int, int]] = []
    for lo, hi in sorted((offset, offset + len(data))
                         for offset, data, _t, _d in writes):
        if spans and lo <= spans[-1][1]:
            spans[-1] = (spans[-1][0], max(spans[-1][1], hi))
        else:
            spans.append((lo, hi))
    return spans


def run_sweep() -> SweepReport:
    """Run the workload once, then check every distinct media state a
    power cut at any instant of its write trace would leave."""
    kernel, device = _boot()
    device.trace = trace = []
    state = run_workload(kernel, device, WorkloadState())
    assert state.scrub_errors == 0, "the workload's own scrub must be clean"
    writes = [entry for entry in trace if len(entry) == 4]
    instants = _instants(trace)
    report = SweepReport(writes=len(writes), discards=len(trace) - len(writes),
                         instants=len(instants))
    spans = _spans(writes)
    seen: set[bytes] = set()
    for at in instants:
        media = _device(SimClock(at))
        media.replay(trace, at)
        # the bytes themselves, read off the media without a command
        key = b"".join(media._load(lo, hi - lo) for lo, hi in spans)
        if key in seen:
            continue
        seen.add(key)
        point = CrashPointResult(at_ns=at)
        for number, (_offset, data, transfer_at, durable_at) in enumerate(writes):
            if durable_at <= at:
                point.durable.append(number)
            elif transfer_at < at:
                point.torn.append((number, landed_bytes(
                    len(data), transfer_at, durable_at, at)))
        verify_recovery(state, media, point)
        _verify_fsck(media, point)
        report.points.append(point)
    if len(report.points) != EXPECTED_CRASH_POINTS:
        report.width_drift = (
            f"sweep width drifted: the trace reaches {len(report.points)} "
            f"distinct media states but EXPECTED_CRASH_POINTS pins "
            f"{EXPECTED_CRASH_POINTS} — update the pin in one place "
            f"(repro.fault.crashtest.EXPECTED_CRASH_POINTS)"
        )
    return report
