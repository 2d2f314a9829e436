"""The crash-consistency sweep behind ``sls crashtest``.

Aurora's contract is that a power cut costs at most the last
checkpoint interval.  This harness checks the reproduction keeps that
promise *at every instant*: it runs a fixed checkpoint/restore
workload — SLS checkpoints, SLSFS snapshots, ``sls_ntflush`` log
appends, snapshot deletion plus in-place GC, then an online scrub pass
— arms one ``crash`` failpoint per run ("power-cut at hit N of site
S"), tears the device, recovers a fresh store from the raw bytes, and
asserts four oracles:

1. **prefix consistency** — the recovered snapshot directory equals,
   *exactly*, the directory as it stood at the recovered superblock
   generation (the workload records every generation as it is
   written).  FIFO durability makes this strict: if superblock
   generation *g* survived, every earlier write survived too, so
   recovery discards nothing and invents nothing.
2. **no leaked extents** — the rebuilt allocator's ``allocated_bytes``
   equals the byte-sum of the unique extents reachable from the
   recovered snapshots, and its free-list invariants hold.
3. **restorable latest image** — the newest recovered SLS snapshot
   restores onto a fresh kernel, and the restored heap bytes match
   what the workload wrote before that checkpoint.  The persistent
   log, reopened on its known region, scans back exactly the records
   whose synchronous append had returned.
4. **fsck clean or exactly repaired** — ``repair_store`` on a second
   fresh store walks every snapshot with full checksum verification;
   every finding must be repaired, and a second fsck of the repaired
   store must report nothing (see RECOVERY.md).

Everything is deterministic: the workload takes no wall-clock input,
the sweep enumerates failpoint hit counts observed in a golden run,
and a fixed registry seed reproduces the same fault log every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.backends import make_disk_backend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.errors import PowerCut
from repro.fault import names as fault_names
from repro.fault.registry import FailpointRegistry, FaultAction
from repro.hw.nvme import NvmeDevice
from repro.objstore.alloc import Extent
from repro.objstore.fsck import check_store, repair_store
from repro.objstore.gc import GarbageCollector
from repro.objstore.log import PersistentLog
from repro.objstore.scrub import Scrubber
from repro.objstore.record import decode
from repro.objstore.snapshot import SnapshotDirectory
from repro.objstore.store import ObjectStore
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.posix.vnode import VfsNamespace
from repro.slsfs.fs import SlsFS
from repro.units import GIB, KIB, PAGE_SIZE

#: the sites the sweep power-cuts, hit by hit (the two batch sites cut
#: power at batch boundaries: a whole coalesced batch buffered or
#: submitted but not yet named by a superblock)
SWEEP_SITES = (
    fault_names.FP_DEVICE_WRITE,
    fault_names.FP_DEVICE_BATCH,
    fault_names.FP_STORE_WRITE_COMPRESSED,
    fault_names.FP_STORE_WRITE_DELTA,
    fault_names.FP_STORE_BATCH_FLUSH,
    fault_names.FP_STORE_SHARD_FLUSH,
    fault_names.FP_STORE_COMMIT,
    fault_names.FP_STORE_WRITE_DIRECTORY,
    fault_names.FP_LOG_APPEND,
    fault_names.FP_GC_COLLECT,
    fault_names.FP_FS_SYNC,
    fault_names.FP_SCRUB_STEP,
)

DEFAULT_SEED = 0xFA17
LOG_OWNER_OID = 7777
HEAP_PAGES = 8
CHECKPOINTS = 5
#: extents per scrub step in the workload's post-barrier scrub pass
SCRUB_BATCH = 16

#: The crash-point count of the full-fidelity sweep (default seed,
#: stride 1, all sites).  This is THE pin: the CI job passes
#: ``--expect-points pinned`` and ``run_sweep`` itself fails loudly
#: when a full sweep's width drifts from it — adding or removing a
#: crash site means updating exactly this constant.
EXPECTED_CRASH_POINTS = 154


@dataclass
class WorkloadState:
    """Ground truth the oracles compare recovery against, recorded as
    the workload runs (and therefore valid even when it is cut short)."""

    #: superblock generation -> sorted snapshot names at that generation
    history: dict[int, list[str]] = field(default_factory=lambda: {0: []})
    #: SLS checkpoint name -> {heap page index: bytes expected at page start}
    heap_expect: dict[str, dict[int, bytes]] = field(default_factory=dict)
    heap_start: int = 0
    #: payloads whose synchronous (durable) append returned
    log_appended: list[bytes] = field(default_factory=list)
    log_region: Optional[Extent] = None
    #: checksum errors the workload's own scrub pass found (golden: 0)
    scrub_errors: int = 0
    completed: bool = False


@dataclass
class CrashPointResult:
    """One sweep run: crash at hit ``index`` of failpoint ``site``."""

    site: str
    index: int
    fired: bool
    at_ns: int = 0
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
    #: hits each site took in the fault-free golden run
    golden_hits: dict[str, int] = field(default_factory=dict)
    #: set when a full-fidelity sweep's width diverges from the
    #: EXPECTED_CRASH_POINTS pin (counts as a failure)
    width_drift: Optional[str] = None

    @property
    def crash_points(self) -> list[CrashPointResult]:
        return [p for p in self.points if p.fired]

    @property
    def failures(self) -> list[str]:
        out = [
            f"{p.site}@{p.index}: {msg}"
            for p in self.points
            for msg in p.failures
        ]
        if self.width_drift:
            out.append(self.width_drift)
        return out

    def fired_by_site(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for point in self.crash_points:
            out[point.site] = out.get(point.site, 0) + 1
        return out

    def summary(self) -> str:
        lines = [
            f"crash sweep: {len(self.crash_points)} crash points across "
            f"{len(self.fired_by_site())} failpoint sites"
        ]
        for site in SWEEP_SITES:
            fired = self.fired_by_site().get(site, 0)
            lines.append(
                f"  {site:<28} {fired:>4} crashes "
                f"({self.golden_hits.get(site, 0)} hits in golden run)"
            )
        repaired = sum(p.fsck_findings for p in self.crash_points)
        if self.failures:
            lines.append(f"FAILURES ({len(self.failures)}):")
            lines.extend(f"  {f}" for f in self.failures)
        else:
            lines.append(
                "all recoveries prefix-consistent, leak-free, restorable; "
                f"fsck clean or exactly repaired ({repaired} findings repaired)"
            )
        return "\n".join(lines)


def _boot(seed: int) -> tuple[Kernel, NvmeDevice]:
    kernel = Kernel(hostname="crashtest", memory_bytes=1 * GIB)
    kernel.faults = FailpointRegistry(clock=kernel.clock, seed=seed)
    # Multi-queue with a bounded in-flight window: the workload's
    # checkpoints flush through the sharded parallel path, so the
    # sweep power-cuts between shard submissions and the recovery
    # oracles prove the superblock barrier holds across queues.
    device = NvmeDevice(kernel.clock, name="crash-nvme",
                        queue_depth=8, num_queues=4)
    return kernel, device


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
    + one deletion/GC round.  Fills ``state`` in place so the oracles
    have ground truth even when a power cut unwinds mid-operation."""
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

    fs = SlsFS(store)
    vfs = VfsNamespace(fs)
    log = PersistentLog(store, LOG_OWNER_OID, capacity=64 * KIB)
    state.log_region = log.region
    gc = GarbageCollector(store)

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
        state.log_appended.append(entry)

        handle = vfs.open(f"/file-{i}", O_RDWR | O_CREAT)
        handle.write(b"fsdata-%d" % i)
        fs_snapshots.append(fs.sync(name=f"fs-{i}").snap_id)

        if i == 2:
            # Delete the oldest SLSFS snapshot and reclaim in place.
            # The barrier makes the deletion durable before any later
            # write may reuse the freed extents: reusing space whose
            # deallocation is still in flight would let a crash roll
            # the directory back to a generation that references
            # since-overwritten records (deferred reuse, as in ZFS).
            store.delete_snapshot(fs_snapshots.pop(0))
            store.flush_barrier()
            gc.collect()
    sls.barrier(group)
    # Online scrub over everything just written: each bounded step is
    # its own crash site (FP_SCRUB_STEP), and the golden run must come
    # back checksum-clean.
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
            for _hash, offset, length, _page_length in store.read_manifest(extent).pages.rows():
                seen[offset] = length
        for ref in manifest.records:
            seen[ref.extent.offset] = ref.extent.length
    return seen


def verify_recovery(state: WorkloadState, device: NvmeDevice,
                    kernel: Kernel, point: CrashPointResult) -> None:
    """Run the three oracles against a freshly recovered store."""
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
    referenced = _referenced_extents(store)
    if store.allocator.allocated_bytes != sum(referenced.values()):
        point.failures.append(
            f"extent leak: allocator holds {store.allocator.allocated_bytes} B "
            f"but snapshots reference {sum(referenced.values())} B"
        )
    try:
        store.allocator.check_invariants()
    except AssertionError as exc:
        point.failures.append(f"allocator invariants violated: {exc}")

    # Oracle 3a: the durable prefix of the log scans back exactly.
    if state.log_region is not None:
        reopened = PersistentLog(store, LOG_OWNER_OID, region=state.log_region)
        scanned = [payload for _seq, payload in reopened.scan_region()]
        if scanned != state.log_appended:
            point.failures.append(
                f"log prefix mismatch: scanned {scanned}, "
                f"durable appends were {state.log_appended}"
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
        hostname="restored", memory_bytes=1 * GIB, clock=kernel.clock
    )
    sls = SLS(restored_kernel)
    try:
        image = load_image_from_store(store, latest)
        procs, _metrics = sls.restore(image, backend_name="disk0")
    except PowerCut:
        # an injected cut during verification is not a recovery verdict
        raise
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
    except PowerCut:
        # an injected cut mid-repair must fail the sweep, not read as
        # "fsck found nothing"
        raise
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


def golden_hits(seed: int = DEFAULT_SEED) -> dict[str, int]:
    """Run the workload fault-free and count hits per sweep site (each
    site is armed far past any reachable hit so its counter runs)."""
    kernel, device = _boot(seed)
    points = {
        site: kernel.faults.arm(
            site, FaultAction("fail"), after=10 ** 9, count=1
        )
        for site in SWEEP_SITES
    }
    state = run_workload(kernel, device, WorkloadState())
    assert state.completed, "golden run must complete fault-free"
    assert state.scrub_errors == 0, "golden run's scrub must be clean"
    return {site: point.seen for site, point in points.items()}


def run_crash_point(site: str, index: int,
                    seed: int = DEFAULT_SEED) -> CrashPointResult:
    """One sweep run: power-cut at hit ``index`` of ``site``, then
    tear the device, recover, and check the oracles."""
    point = CrashPointResult(site=site, index=index, fired=False)
    kernel, device = _boot(seed)
    kernel.faults.arm(site, FaultAction("crash"), after=index, count=1)
    state = WorkloadState()
    try:
        run_workload(kernel, device, state)
    except PowerCut as cut:
        point.fired = True
        point.at_ns = cut.at_ns
    if not point.fired:
        return point  # site had fewer hits than the golden run implied
    kernel.faults.disarm()
    device.crash()
    verify_recovery(state, device, kernel, point)
    _verify_fsck(device, point)
    return point


def run_sweep(seed: int = DEFAULT_SEED, stride: int = 1,
              sites=SWEEP_SITES) -> SweepReport:
    """Sweep every site over its golden-run hit count.

    ``stride`` subsamples the (large) device-write site; the targeted
    sites — commit, log append, GC, SLSFS sync — are always swept
    exhaustively, since each of their hits is a distinct
    consistency-critical instant.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    report = SweepReport(golden_hits=golden_hits(seed))
    for site in sites:
        hits = report.golden_hits.get(site, 0)
        step = stride if site == fault_names.FP_DEVICE_WRITE else 1
        for index in range(0, hits, step):
            report.points.append(run_crash_point(site, index, seed=seed))
    if (seed == DEFAULT_SEED and stride == 1 and tuple(sites) == SWEEP_SITES
            and len(report.crash_points) != EXPECTED_CRASH_POINTS):
        report.width_drift = (
            f"sweep width drifted: full-fidelity sweep visited "
            f"{len(report.crash_points)} crash points but "
            f"EXPECTED_CRASH_POINTS pins {EXPECTED_CRASH_POINTS} — a crash "
            f"site was added or dropped; update the pin in one place "
            f"(repro.fault.crashtest.EXPECTED_CRASH_POINTS)"
        )
    return report
