"""The pinned benchmark suite behind ``sls bench``.

A small, fixed set of checkpoint/restore scenarios whose numbers are
pure virtual-clock arithmetic: no wall-clock input, no randomness, no
machine dependence.  Two runs — on any two machines — produce
byte-identical JSON, which is what lets CI diff the output against a
committed baseline (``benchmarks/results/baseline.json``) and fail on
regression instead of eyeballing noisy timings.

The headline scenario is the checkpoint flush path: one dirty working
set flushed through the store's coalescing
:class:`~repro.objstore.store.WriteBatch` across NVMe queue depths.
The suite reports flush latency, doorbells, and submit stalls per
cell.  The
``multiqueue_flush`` scenario sweeps the queue *count* at fixed depth:
the sharded batch flush spreads a checkpoint's records over all
submission queues, and the nq4-vs-nq1 flush-lag speedup is a gated
cell.  The ``fleet`` scenario scales serverless tenancy to 1000
functions on one store (cold-start and flush-lag percentiles under a
seeded invocation storm) and gates the noisy-neighbor QoS story: the
scheduler must keep the steady tenant inside the flush-lag SLO the
unthrottled baseline violates.  The ``writeamp`` scenario pins the
write-path codec: an incremental small-dirty-region workload flushed
with the codec on vs. forced-RAW at 1/2/4 queues, gating the media
write-amplification reduction (``speedup_writeamp_nq*_x1000``) and
the flush-lag crossover.  The ``restorecache`` scenario pins the
restore-side page cache: lazy-restore fault-latency p99 with the cache
disabled vs. a recorded-fault-order prefetch replay, at 1/2/4 queues,
gating the p99 collapse (``speedup_restorecache_nq*_x1000``).  See
BENCHMARKS.md for the baseline-refresh procedure.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from repro.core.backends import DiskBackend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P, with_queue_model
from repro.obs import names as obs_names
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.objstore.pagecache import FaultOrderLog

#: bump when scenario shape changes incompatibly (forces a baseline refresh)
SUITE_VERSION = 5

#: distinct-content dirty pages flushed per checkpoint
PAGES = 512

#: queue depths the flush scenario sweeps
QUEUE_DEPTHS = (1, 8, 16)

#: queue counts the multi-queue scenario sweeps (at fixed depth 8)
NUM_QUEUES = (1, 2, 4)


def _boot(queue_depth: int, num_queues: int = 1):
    """One fresh machine + group + disk backend for one bench cell."""
    kernel = Kernel(hostname="bench", memory_bytes=2 * GIB)
    spec = with_queue_model(OPTANE_900P, queue_depth, num_queues=num_queues)
    device = NvmeDevice(kernel.clock, spec=spec, name="bench-nvme")
    sls = SLS(kernel)
    proc = kernel.spawn("bench-app")
    sysc = Syscalls(kernel, proc)
    heap = sysc.mmap(PAGES * PAGE_SIZE, name="heap")
    sysc.populate(
        heap.start, PAGES * PAGE_SIZE, fill_fn=lambda i: b"bench-page-%08d" % i
    )
    group = sls.persist(proc, name="bench")
    store = ObjectStore(device, mem=kernel.mem)
    backend = DiskBackend("disk0", store)
    backend.bind(kernel)
    group.attach(backend)
    return kernel, sls, sysc, group, backend, heap


def _checkpoint_flush_cell(queue_depth: int, num_queues: int = 1) -> dict:
    """Flush ``PAGES`` distinct pages through one full checkpoint."""
    kernel, sls, sysc, group, backend, heap = _boot(
        queue_depth, num_queues=num_queues
    )
    # This grid pins *flush mechanics* — coalescing, doorbells, shard
    # spread — on full-page traffic, so the write-path codec is forced
    # off (its bytes-vs-CPU trade has its own gated scenario: writeamp).
    backend.store.codec.enabled = False
    image = sls.checkpoint(group, name="bench-full")
    sls.barrier(group)
    info = image.copies["disk0"].flush
    metrics = image.metrics

    # One incremental on a quarter of the heap, pipelined against the
    # full image's (already durable) flush shape for a second data point.
    step = 4
    for page in range(0, PAGES, step):
        sysc.poke(heap.start + page * PAGE_SIZE, b"dirty-%08d" % page)
    incr = sls.checkpoint(group, name="bench-incr")
    sls.barrier(group)
    incr_info = incr.copies["disk0"].flush

    return {
        "stop_ns": int(metrics.stop_time_ns),
        "flush_lag_ns": int(metrics.flush_lag_ns),
        "doorbells": int(info.doorbells),
        "records": int(info.records),
        "extents": int(info.extents),
        "shards": int(info.shards),
        "submit_stall_ns": int(info.submit_stall_ns),
        "incr_flush_lag_ns": int(incr.metrics.flush_lag_ns),
        "incr_doorbells": int(incr_info.doorbells),
    }


def _pipeline_cell() -> dict:
    """Two back-to-back checkpoints with no barrier between: the second
    barrier entry lands while the first flush is still in flight."""
    kernel, sls, sysc, group, backend, heap = _boot(8)
    sls.checkpoint(group, name="pipe-0")
    first = group.latest_image
    overlapped = not first.durable
    sysc.poke(heap.start, b"pipe-dirty")
    second = sls.checkpoint(group, name="pipe-1")
    sls.barrier(group)
    pipelined = int(
        kernel.obs.registry.counter(
            obs_names.C_CKPT_PIPELINED, group="bench"
        ).value
    )
    return {
        "overlapped": int(overlapped),
        "pipelined_checkpoints": pipelined,
        "second_stop_ns": int(second.metrics.stop_time_ns),
        "second_flush_lag_ns": int(second.metrics.flush_lag_ns),
    }


def _restore_cell() -> dict:
    """Read a full checkpoint back from the store (restore path)."""
    kernel, sls, sysc, group, backend, heap = _boot(8)
    sls.checkpoint(group, name="restore-src")
    sls.barrier(group)
    store = backend.store
    snapshot = store.snapshot_by_name("restore-src")
    restored_kernel = Kernel(
        hostname="bench-restored", memory_bytes=2 * GIB, clock=kernel.clock
    )
    restored_sls = SLS(restored_kernel)
    image = load_image_from_store(store, snapshot)
    before = kernel.clock.now
    _procs, metrics = restored_sls.restore(image, backend_name="disk0")
    return {
        "total_ns": int(kernel.clock.now - before),
        "objstore_read_ns": int(metrics.objstore_read_ns),
        "memory_ns": int(metrics.memory_ns),
        "metadata_ns": int(metrics.metadata_ns),
        "pages_installed": int(metrics.pages_installed),
    }


def _flush_grid() -> tuple[dict, dict]:
    """The batched flush over queue depths."""
    return {
        f"batched_qd{queue_depth}": _checkpoint_flush_cell(queue_depth)
        for queue_depth in QUEUE_DEPTHS
    }, {}


def _multiqueue_grid() -> tuple[dict, dict]:
    """Batched flush over queue counts at fixed depth 8: the sharded
    parallel flush against its own single-queue shape.  The nq-vs-nq1
    flush-lag speedups are the gated leaves (``speedup_`` prefix)."""
    cells = {
        f"nq{num_queues}_qd8": _checkpoint_flush_cell(
            8, num_queues=num_queues
        )
        for num_queues in NUM_QUEUES
    }
    base = cells["nq1_qd8"]["flush_lag_ns"]
    derived = {
        f"speedup_nq{num_queues}_x1000": (
            base * 1000 // cells[f"nq{num_queues}_qd8"]["flush_lag_ns"]
            if cells[f"nq{num_queues}_qd8"]["flush_lag_ns"] else 0
        )
        for num_queues in NUM_QUEUES
        if num_queues > 1
    }
    return cells, derived


def _fleet_grid() -> tuple[dict, dict]:
    """Fleet-scale serverless tenancy at 1x/10x/100x, plus the
    noisy-neighbor QoS comparison.  Gated leaves: cold-start and
    flush-lag percentiles per fleet size (``*_ns``), the exact-match
    ``steady_slo_violated`` booleans (the QoS run must stay inside the
    SLO the unthrottled baseline blows), and the
    ``speedup_qos_protection_x1000`` steady-tenant p99 ratio."""
    from repro.cli.fleet import FLEET_SIZES, fleet_cell, noisy_neighbor_cell

    cells = {
        f"fleet_n{functions}": fleet_cell(functions)
        for functions in FLEET_SIZES
    }
    baseline = noisy_neighbor_cell(qos=False)
    protected = noisy_neighbor_cell(qos=True)
    cells["noisy_baseline"] = baseline
    cells["noisy_qos"] = protected
    derived = {
        "speedup_qos_protection_x1000": (
            baseline["steady_flush_p99_ns"] * 1000
            // protected["steady_flush_p99_ns"]
            if protected["steady_flush_p99_ns"] else 0
        ),
    }
    return cells, derived


#: incremental rounds the writeamp scenario checkpoints (each round
#: re-dirties one small region per page, so every page persists as a
#: sub-page delta — depth stays under MAX_DELTA_CHAIN)
WRITEAMP_ROUNDS = 3


def _writeamp_cell(num_queues: int, codec_on: bool) -> dict:
    """One full checkpoint, then ``WRITEAMP_ROUNDS`` incrementals that
    poke a few bytes into every page.  ``codec_on=False`` forces the
    legacy RAW path (a full page on media per dirty byte) — the
    write-amplification baseline the codec is gated against."""
    kernel, sls, sysc, group, backend, heap = _boot(
        8, num_queues=num_queues
    )
    store = backend.store
    store.codec.enabled = codec_on
    sls.checkpoint(group, name="wa-full")
    sls.barrier(group)
    media_before = store.stats.page_media_bytes
    full_before = store.stats.page_full_bytes
    incr_lag_ns = 0
    for round_no in range(WRITEAMP_ROUNDS):
        for page in range(PAGES):
            sysc.poke(
                heap.start + page * PAGE_SIZE + 64,
                b"wa-%d-%08d" % (round_no, page),
            )
        image = sls.checkpoint(group, name=f"wa-incr-{round_no}")
        sls.barrier(group)
        incr_lag_ns = int(image.metrics.flush_lag_ns)
    incr_media = int(store.stats.page_media_bytes - media_before)
    incr_full = int(store.stats.page_full_bytes - full_before)
    return {
        "incr_media_bytes": incr_media,
        "incr_full_bytes": incr_full,
        "writeamp_x1000": incr_full * 1000 // incr_media if incr_media else 0,
        "pages_delta": int(store.stats.pages_delta),
        "pages_compressed": int(store.stats.pages_compressed),
        "encoded_bytes_saved": int(store.stats.encoded_bytes_saved),
        "incr_flush_lag_ns": incr_lag_ns,
    }


def _writeamp_grid() -> tuple[dict, dict]:
    """codec × forced-RAW over queue counts.  Gated leaves: per-queue-
    count media write-amplification reduction (RAW incremental media
    bytes over codec incremental media bytes, ×1000 — the acceptance
    floor is 2000, i.e. ≥2x) and the incremental flush-lag speedup
    (the crossover: fewer media bytes must also mean earlier
    durability, at every queue count)."""
    cells = {}
    for num_queues in NUM_QUEUES:
        for codec_on in (False, True):
            mode = "codec" if codec_on else "raw"
            cells[f"{mode}_nq{num_queues}"] = _writeamp_cell(
                num_queues, codec_on
            )
    derived = {}
    for num_queues in NUM_QUEUES:
        raw = cells[f"raw_nq{num_queues}"]
        enc = cells[f"codec_nq{num_queues}"]
        derived[f"speedup_writeamp_nq{num_queues}_x1000"] = (
            raw["incr_media_bytes"] * 1000 // enc["incr_media_bytes"]
            if enc["incr_media_bytes"] else 0
        )
        derived[f"speedup_writeamp_lag_nq{num_queues}_x1000"] = (
            raw["incr_flush_lag_ns"] * 1000 // enc["incr_flush_lag_ns"]
            if enc["incr_flush_lag_ns"] else 0
        )
    return cells, derived


def _restorecache_cell(num_queues: int) -> tuple[dict, "FaultOrderLog"]:
    """Lazy-restore fault latency, read-through vs. recorded-order
    prefetch, at one queue count; returns the cell and the fault order
    run 1 recorded.

    Run 1 restores lazily with the page cache *disabled* and records
    its fault order (a deterministic skewed permutation of the heap —
    stride 17 is coprime to ``PAGES``): the read-through baseline,
    ~one device round-trip per fault.  Run 2 re-enables the cache and
    replays the recorded order as a prefetch stream (coalesced batches
    fanned over the submission queues) before faulting the same pages
    — every demand fault should land on a warm cache.
    """
    from repro.objstore.pagecache import (
        DEFAULT_PAGE_CACHE_BYTES,
        FaultOrderLog,
    )

    kernel, sls, sysc, group, backend, heap = _boot(
        8, num_queues=num_queues
    )
    store = backend.store
    sls.checkpoint(group, name="rc-src")
    sls.barrier(group)
    snapshot = store.snapshot_by_name("rc-src")
    fault_order = [(page * 17) % PAGES for page in range(PAGES)]
    log = FaultOrderLog()

    def run(cache_bytes: int, prefetch: str, record: bool) -> dict:
        store.pagecache.resize(cache_bytes)
        restored_kernel = Kernel(
            hostname="bench-rc", memory_bytes=2 * GIB, clock=kernel.clock
        )
        restored_sls = SLS(restored_kernel)
        image = load_image_from_store(store, snapshot)
        restore_start = kernel.clock.now
        procs, _metrics = restored_sls.restore(
            image, backend_name="disk0", lazy=True,
            prefetch=prefetch, record_faults=record, fault_log=log,
        )
        restore_ns = int(kernel.clock.now - restore_start)
        faulter = Syscalls(restored_kernel, procs[0])
        latencies = []
        for page in fault_order:
            before = kernel.clock.now
            faulter.peek(heap.start + page * PAGE_SIZE, 16)
            latencies.append(int(kernel.clock.now - before))
        latencies.sort()
        return {
            "p99_ns": latencies[len(latencies) * 99 // 100],
            "mean_ns": sum(latencies) // len(latencies),
            "restore_ns": restore_ns,
        }

    nocache = run(0, prefetch="off", record=True)
    replay = run(DEFAULT_PAGE_CACHE_BYTES, prefetch="recorded", record=False)
    return {
        "nocache_fault_p99_ns": nocache["p99_ns"],
        "nocache_fault_mean_ns": nocache["mean_ns"],
        "replay_fault_p99_ns": replay["p99_ns"],
        "replay_fault_mean_ns": replay["mean_ns"],
        # The replay restore pays the prefetch stream up front; its
        # cost shrinks with the queue count (runs fan round-robin).
        "replay_restore_ns": replay["restore_ns"],
        "cache_hit_rate_permille": int(store.pagecache.hit_rate_permille),
        "recorded_faults": len(log),
    }, log


def _restorecache_grid() -> tuple[dict, dict, "FaultOrderLog"]:
    """Recorded-order prefetch over queue counts.  Gated leaves: the
    fault-latency numbers themselves (``*_ns``) and the per-queue-count
    p99 collapse (``speedup_restorecache_nq*_x1000`` — the acceptance
    floor at nq4 is 2000, i.e. ≥2x).  The hit-rate floor (≥900
    permille on the replayed restore) is asserted by the bench tests,
    not the tolerance-band compare.  Also returns the fault order the
    last queue count recorded (``sls bench --fault-log``)."""
    cells = {}
    for num_queues in NUM_QUEUES:
        cells[f"nq{num_queues}"], log = _restorecache_cell(num_queues)
    derived = {
        f"speedup_restorecache_nq{num_queues}_x1000": (
            cells[f"nq{num_queues}"]["nocache_fault_p99_ns"] * 1000
            // cells[f"nq{num_queues}"]["replay_fault_p99_ns"]
            if cells[f"nq{num_queues}"]["replay_fault_p99_ns"] else 0
        )
        for num_queues in NUM_QUEUES
    }
    return cells, derived, log


#: scenario name -> callable returning (cells, derived-leaves), and
#: for restorecache its recorded fault order as well
SCENARIOS = {
    "checkpoint_flush": _flush_grid,
    "multiqueue_flush": _multiqueue_grid,
    "pipeline": lambda: (_pipeline_cell(), {}),
    "restore": lambda: (_restore_cell(), {}),
    "fleet": _fleet_grid,
    "writeamp": _writeamp_grid,
    "restorecache": _restorecache_grid,
}


class SuiteResults(dict):
    """The deterministic result tree :func:`run_suite` returns (what
    :func:`to_json` renders), carrying beside it ``fault_log``: the
    restorecache scenario's recorded fault order, which ``sls bench
    --fault-log`` exports as a CI artifact, or None when that scenario
    did not run."""

    fault_log: Optional["FaultOrderLog"] = None


def run_suite(only: Optional[str] = None) -> SuiteResults:
    """Run every scenario (or just ``only``); deterministic result tree.

    ``only`` runs a single cell grid for local iteration.  Every cell
    builds its own world, which numbers its own objects, so that
    subtree equals the full suite's; the partial tree still must not
    be compared against the full-suite baseline (the CLI rejects
    ``--only`` + ``--compare``).
    """
    if only is not None and only not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {only!r} (have: {', '.join(sorted(SCENARIOS))})"
        )
    results = SuiteResults(meta={
        "suite_version": SUITE_VERSION,
        "pages": PAGES,
        "queue_depths": list(QUEUE_DEPTHS),
        "num_queues": list(NUM_QUEUES),
    })
    derived: dict = {}
    for name, scenario in SCENARIOS.items():
        if only is not None and name != only:
            continue
        cells, leaves, *fault_log = scenario()
        if fault_log:
            results.fault_log = fault_log[0]
        results[name] = cells
        derived.update(leaves)
    results["derived"] = derived
    return results


def to_json(results: dict) -> str:
    """Canonical byte-stable rendering (what CI diffs)."""
    return json.dumps(results, sort_keys=True, indent=2) + "\n"


# --- baseline comparison (the CI regression gate) ----------------------------

#: leaf keys where a *higher* current value is a regression
_HIGHER_IS_WORSE = ("_ns",)
#: leaf keys where a *lower* current value is a regression
_LOWER_IS_WORSE = ("speedup_",)


def _walk(tree: dict, path: str = ""):
    for key, value in tree.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _walk(value, here)
        else:
            yield here, key, value


def compare(current: dict, baseline: dict,
            tolerance: float = 0.05) -> list[str]:
    """Diff ``current`` against ``baseline``; returns regression lines.

    Timing leaves (``*_ns``) regress when they exceed the baseline by
    more than ``tolerance``; ``speedup_*`` leaves regress when they
    fall below it by more than ``tolerance``.  A leaf present in the
    baseline but missing from the current run is always a regression
    (a silently dropped scenario must not pass the gate).  Leaves new
    in ``current`` are ignored, so adding scenarios does not require a
    lockstep baseline update.
    """
    regressions: list[str] = []
    for path, key, base_value in _walk(baseline):
        node: Optional[dict] = current
        for part in path.split(".")[:-1]:
            node = node.get(part) if isinstance(node, dict) else None
        value = node.get(key) if isinstance(node, dict) else None
        if value is None:
            regressions.append(f"{path}: missing from current run")
            continue
        if path.startswith("meta.") or not isinstance(
            base_value, (int, float)
        ) or isinstance(base_value, bool):
            # ``meta`` describes the scenario shape; any drift means
            # the baseline needs a refresh, not a tolerance band.
            if value != base_value:
                regressions.append(
                    f"{path}: {value!r} != baseline {base_value!r}"
                )
            continue
        if key.endswith(_HIGHER_IS_WORSE):
            if value > base_value * (1 + tolerance):
                regressions.append(
                    f"{path}: {value} exceeds baseline {base_value} "
                    f"by more than {tolerance:.0%}"
                )
        elif key.startswith(_LOWER_IS_WORSE):
            if value < base_value * (1 - tolerance):
                regressions.append(
                    f"{path}: {value} fell below baseline {base_value} "
                    f"by more than {tolerance:.0%}"
                )
    return regressions
