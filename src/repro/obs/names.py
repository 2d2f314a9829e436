"""Canonical names for every span, tracepoint, and metric.

One flat catalogue so instrumented modules and the documentation
(``OBSERVABILITY.md``) can never drift apart: the docs test asserts
that every name shipped here is documented, and modules import these
constants instead of spelling strings inline.

Naming convention:

- spans: ``<subsystem>.<operation>`` with dotted sub-phases
  (``checkpoint.stop.metadata``); the span taxonomy mirrors the rows
  of the paper's Tables 3 and 4.
- point events (tracepoints): past-tense moments inside or between
  spans (``backend.durable``).
- counters end in ``_total``; histograms carry their unit (``_ns``);
  gauges name the quantity they track.
"""

from __future__ import annotations

# --- spans (Table 3: checkpoint stop-time phases) ---------------------------

SPAN_CHECKPOINT = "sls.checkpoint"
SPAN_CKPT_STOP = "checkpoint.stop"
SPAN_CKPT_STOP_METADATA = "checkpoint.stop.metadata"
SPAN_CKPT_STOP_COW_ARM = "checkpoint.stop.cow_arm"
SPAN_CKPT_FLUSH_SUBMIT = "checkpoint.flush.submit"
SPAN_BARRIER = "sls.barrier"

# --- spans (Table 4: restore phases) -----------------------------------------

SPAN_RESTORE = "sls.restore"
SPAN_RESTORE_READ = "restore.objstore_read"
SPAN_RESTORE_METADATA = "restore.metadata"
SPAN_RESTORE_MEMORY = "restore.memory"

# --- spans (object store / filesystem) ---------------------------------------

#: covers one batch from doorbell submit to the completion of its last
#: coalesced extent (closed out-of-order at the completion deadline)
SPAN_STORE_BATCH = "objstore.batch.flush"
#: one bounded scrub step: a batch of extent reads fanned over idle
#: queues plus their checksum verification
SPAN_SCRUB = "objstore.scrub"
SPAN_FS_SNAPSHOT = "slsfs.container_snapshot"
SPAN_FS_CLONE = "slsfs.clone"

# --- tracepoints (point events) ----------------------------------------------

EV_BARRIER_ENTER = "checkpoint.barrier.enter"
EV_BARRIER_EXIT = "checkpoint.barrier.exit"
EV_BACKEND_DURABLE = "backend.durable"
EV_COW_FREEZE = "cow.freeze"
EV_COW_FAULT = "cow.fault"
EV_CAPTURE_STORE = "checkpoint.capture.store"
EV_CAPTURE_SWAP = "checkpoint.capture.swap"
EV_BATCH_SUBMIT = "objstore.batch.submit"
EV_GC_RECLAIM = "objstore.gc.reclaim"

# --- counters ----------------------------------------------------------------

C_CHECKPOINTS = "sls.checkpoints_total"
C_RESTORES = "sls.restores_total"
C_PAGES_CAPTURED = "sls.pages_captured_total"
C_BYTES_FLUSHED = "sls.bytes_flushed_total"
C_RESTORE_PAGES_INSTALLED = "sls.restore_pages_installed_total"
C_RESTORE_PAGES_LAZY = "sls.restore_pages_lazy_total"
C_SWAP_CAPTURED = "checkpoint.swapped_pages_total"
C_COW_PAGES_FROZEN = "cow.pages_frozen_total"
C_COW_FAULTS = "cow.faults_total"
C_COW_PTE_UPDATES = "cow.pte_updates_total"
C_STORE_PAGES_WRITTEN = "objstore.pages_written_total"
C_STORE_PAGES_DEDUPED = "objstore.pages_deduped_total"
C_STORE_META_RECORDS = "objstore.meta_records_total"
C_STORE_BYTES_WRITTEN = "objstore.bytes_written_total"
C_STORE_SNAPSHOTS = "objstore.snapshots_committed_total"
C_STORE_SNAPSHOTS_DELETED = "objstore.snapshots_deleted_total"
C_STORE_BATCHES = "objstore.batches_total"
C_STORE_BATCH_RECORDS = "objstore.batch_records_total"
#: page records the write-path codec stored as zlib streams
C_STORE_PAGES_COMPRESSED = "objstore.pages_compressed_total"
#: page records the write-path codec stored as sub-page deltas
C_STORE_PAGES_DELTA = "objstore.pages_delta_total"
#: media bytes the codec avoided writing vs. storing every page raw
C_STORE_ENCODED_BYTES_SAVED = "objstore.encoded_bytes_saved_total"
C_CKPT_PIPELINED = "sls.checkpoints_pipelined_total"
C_GC_EXTENTS_FREED = "objstore.gc.extents_freed_total"
C_GC_BYTES_FREED = "objstore.gc.bytes_freed_total"
C_FS_SNAPSHOTS = "slsfs.container_snapshots_total"
C_FS_CLONES = "slsfs.clones_total"
C_SCRUB_EXTENTS = "objstore.scrub.extents_verified_total"
C_SCRUB_ERRORS = "objstore.scrub.errors_total"
C_FSCK_FINDINGS = "objstore.fsck.findings_total"
C_FSCK_REPAIRS = "objstore.fsck.repairs_total"
#: per-tenant admission-control rejections by the checkpoint scheduler
C_SCHED_ADMIT_REJECTED = "sched.admission_rejected_total"
#: per-tenant flush-lag SLO violations detected at durability time
C_SCHED_SLO_VIOLATIONS = "sched.slo_violations_total"
#: cold starts (new lazily-restored instances) per deployed function
C_SERVERLESS_COLD_STARTS = "serverless.cold_starts_total"
#: restore-side page-cache demand lookups served from cache
C_PAGECACHE_HITS = "objstore.pagecache.hits_total"
#: restore-side page-cache demand lookups that read through to media
C_PAGECACHE_MISSES = "objstore.pagecache.misses_total"
#: page-cache entries dropped LRU-first to stay inside the byte budget
C_PAGECACHE_EVICTIONS = "objstore.pagecache.evictions_total"
#: page-cache entries dropped for safety (snapshot delete freed the
#: hash, scrub found the media copy damaged, recovery/fsck rebuilt the
#: store's in-memory truth)
C_PAGECACHE_INVALIDATIONS = "objstore.pagecache.invalidations_total"
#: pages warmed into the cache by a recorded-fault-order replay ahead
#: of the faulting workload
C_RESTORE_PAGES_PREFETCHED = "sls.restore_pages_prefetched_total"

# --- gauges ------------------------------------------------------------------

G_SHADOW_DEPTH = "cow.shadow_chain_depth_max"
#: per-submission-queue channel utilization over the run so far, as an
#: integer permille (busy_ns * 1000 / elapsed_ns) — integer so metric
#: exports stay byte-stable
G_DEVICE_QUEUE_UTIL = "device.queue_utilization_permille"
#: how far the online scrub has walked its worklist, 0..1000 (integer
#: permille so metric exports stay byte-stable)
G_SCRUB_PROGRESS = "objstore.scrub.progress_permille"
#: per-tenant admitted-but-undispatched checkpoint requests
G_SCHED_OCCUPANCY = "sched.queue_occupancy"
#: per-tenant checkpoints currently in flight (dispatched, not durable)
G_SCHED_INFLIGHT = "sched.inflight"
#: media bytes charged for page records over what the same pages would
#: cost stored raw, as an integer permille (1000 = no savings; integer
#: so metric exports stay byte-stable)
G_STORE_COMPRESSION_RATIO = "objstore.compression_ratio_permille"
#: payload bytes / page rows added / ancestor manifests listed of the
#: manifest the store last committed (an incremental's manifest lists
#: one record ref and one manifest per live ancestor)
G_STORE_MANIFEST_BYTES = "objstore.manifest_bytes"
G_STORE_MANIFEST_PAGE_ROWS = "objstore.manifest_page_rows"
G_STORE_MANIFEST_LINEAGE = "objstore.manifest_lineage"
#: decoded page bytes currently resident in the restore-side cache
G_PAGECACHE_BYTES = "objstore.pagecache.resident_bytes"
#: lifetime demand hit rate of the restore-side page cache, as an
#: integer permille (integer so metric exports stay byte-stable)
G_PAGECACHE_HIT_RATE = "objstore.pagecache.hit_rate_permille"

# --- histograms (virtual nanoseconds) ----------------------------------------

H_STOP_TIME = "sls.stop_time_ns"
H_FLUSH_LAG = "backend.flush_lag_ns"
H_FLUSH_OVERLAP = "sls.flush_overlap_ns"
H_RESTORE_TOTAL = "sls.restore_total_ns"
#: per-tenant submit-to-durable checkpoint lag (queueing included)
H_TENANT_FLUSH_LAG = "sched.tenant_flush_lag_ns"
#: invoke-to-ready latency of a cold (lazily restored) instance
H_COLD_START = "serverless.cold_start_ns"
#: service latency of one lazy-restore page fault (store pager entry
#: to page content in hand — a cache hit collapses this to CPU cost)
H_RESTORE_FAULT = "sls.restore_fault_ns"


def catalogue() -> dict[str, list[str]]:
    """Every shipped name, grouped by kind (used by the docs test)."""
    groups: dict[str, list[str]] = {
        "span": [], "event": [], "counter": [], "gauge": [], "histogram": [],
    }
    prefix_to_kind = {
        "SPAN_": "span", "EV_": "event", "C_": "counter",
        "G_": "gauge", "H_": "histogram",
    }
    for key, value in sorted(globals().items()):
        for prefix, kind in prefix_to_kind.items():
            if key.startswith(prefix):
                groups[kind].append(value)
    return groups
