"""Human-readable views of traces and metrics (``sls trace`` / ``sls stats``).

Pure formatting — nothing here mutates observability state, so the
CLI, the interactive shell, and tests all share one renderer.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs import names
from repro.obs.registry import Counter, Gauge, Histogram, Registry
from repro.obs.tracer import Span
from repro.units import fmt_time

#: span attributes worth showing inline, in display order
_ATTR_ORDER = (
    "group", "backend", "backends", "incremental", "lazy", "epoch",
    "pages", "objects", "bytes", "pages_installed", "pages_lazy",
)


def _attr_text(span: Span) -> str:
    shown = []
    for key in _ATTR_ORDER:
        if key in span.attrs:
            shown.append(f"{key}={span.attrs[key]}")
    for key in sorted(span.attrs):
        if key not in _ATTR_ORDER:
            shown.append(f"{key}={span.attrs[key]}")
    return f" [{' '.join(shown)}]" if shown else ""


def render_span(span: Span, width: int = 56) -> list[str]:
    """One root span as an indented tree with virtual durations."""
    lines: list[str] = []

    def emit(node: Span, prefix: str, child_prefix: str) -> None:
        label = f"{prefix}{node.name}{_attr_text(node)}"
        lines.append(f"{label:<{width}} {fmt_time(node.duration_ns):>10}")
        for event in node.events:
            offset = event.t_ns - node.start_ns
            lines.append(
                f"{child_prefix}* {event.name} @+{fmt_time(offset)}"
            )
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            branch = "└─ " if last else "├─ "
            cont = "   " if last else "│  "
            emit(child, child_prefix + branch, child_prefix + cont)

    emit(span, "", "")
    return lines


def render_span_tree(roots: Iterable[Span], limit: Optional[int] = None) -> str:
    roots = list(roots)
    skipped = 0
    if limit is not None and len(roots) > limit:
        skipped = len(roots) - limit
        roots = roots[-limit:]
    lines: list[str] = []
    if skipped:
        lines.append(f"... ({skipped} earlier spans omitted; --limit to raise)")
    for root in roots:
        lines.extend(render_span(root))
    return "\n".join(lines)


def checkpoint_reconciliation(root: Span) -> Optional[str]:
    """Reconcile one ``sls.checkpoint`` span against Table 3's rows.

    The printed identity is the paper's: *application stop time* =
    metadata copy + lazy data copy + pause/resume overhead.  Derived
    metrics (``CheckpointMetrics.from_span``) read these same spans,
    so the line doubles as a self-check that the sums agree.
    """
    if root.name != names.SPAN_CHECKPOINT:
        return None
    stop = root.child(names.SPAN_CKPT_STOP)
    if stop is None:
        return None
    meta = stop.child(names.SPAN_CKPT_STOP_METADATA)
    arm = stop.child(names.SPAN_CKPT_STOP_COW_ARM)
    meta_ns = meta.duration_ns if meta else 0
    arm_ns = arm.duration_ns if arm else 0
    residual = stop.duration_ns - meta_ns - arm_ns
    ok = "ok" if residual >= 0 else "MISMATCH"
    kind = "incr" if root.attrs.get("incremental") else "full"
    return (
        f"Table 3 ({root.attrs.get('group', '?')}, {kind}): "
        f"metadata {fmt_time(meta_ns)} + lazy data {fmt_time(arm_ns)}"
        f" + pause/resume {fmt_time(residual)}"
        f" = stop {fmt_time(stop.duration_ns)} [{ok}]"
    )


def render_device_utilization(registry: Registry) -> Optional[str]:
    """Per-queue device utilization table from the persist-path gauges.

    Collects every ``device.queue_utilization_permille`` sample and
    formats one row per (device, queue) with the permille rendered as a
    percentage column — the `sls stats` view of how evenly a sharded
    flush loaded the submission queues.  None when no device gauge has
    been published.
    """
    rows = [
        inst for inst in registry.collect()
        if isinstance(inst, Gauge) and inst.name == names.G_DEVICE_QUEUE_UTIL
    ]
    if not rows:
        return None
    rows.sort(key=lambda i: (i.labels.get("device", ""),
                             int(i.labels.get("queue", "0"))))
    device_w = max(len("device"), max(len(i.labels.get("device", "?")) for i in rows))
    lines = [f"  {'device':<{device_w}}  queue  util%"]
    for inst in rows:
        pct = inst.value / 10.0
        lines.append(
            f"  {inst.labels.get('device', '?'):<{device_w}}"
            f"  {inst.labels.get('queue', '?'):>5}  {pct:5.1f}"
        )
    return "\n".join(lines)


def _per_store_table(registry: Registry, key_gauge: str, header: str,
                     columns: list[tuple[str, int]]) -> Optional[str]:
    """The per-store tables of ``sls stats``: one row per store that
    published ``key_gauge`` (a permille, shown as a percentage), then
    per ``(instrument name, width)`` column the right-aligned total of
    the store's counters/gauges of that name; ``header`` heads them.
    None when no store published the key gauge."""
    totals: dict[tuple[str, str], int] = {}
    for inst in registry.collect():
        if isinstance(inst, (Counter, Gauge)):
            at = inst.name, inst.labels.get("store", "?")
            totals[at] = totals.get(at, 0) + inst.value
    stores = sorted(store for name, store in totals if name == key_gauge)
    if not stores:
        return None
    store_w = max(len("store"), max(len(s) for s in stores))
    lines = [f"  {'store':<{store_w}}{header}"]
    for store in stores:
        cells = "".join(f"  {totals.get((name, store), 0):>{width}}"
                        for name, width in columns)
        pct = totals[key_gauge, store] / 10.0
        lines.append(f"  {store:<{store_w}}  {pct:6.1f}{cells}")
    return "\n".join(lines)


def render_scrub_progress(registry: Registry) -> Optional[str]:
    """Per-store scrub table from the scrubber's exported instruments.

    One row per store showing progress (permille gauge rendered as a
    percentage), extents verified, and errors found — the ``sls stats``
    view of how far the background checksum scrub has gotten and
    whether it has anything for ``sls fsck --repair``.  None when no
    scrubber has published progress.
    """
    return _per_store_table(
        registry, names.G_SCRUB_PROGRESS, "  scrub%  extents  errors",
        [(names.C_SCRUB_EXTENTS, 7), (names.C_SCRUB_ERRORS, 6)],
    )


def render_store_encoding(registry: Registry) -> Optional[str]:
    """Per-store write-path codec table from the encoding instruments.

    One row per store showing how the classify/encode stage split the
    page records (compressed / delta counts), the media bytes it saved,
    the compression ratio (the ``media/raw`` permille gauge rendered as
    a percentage — 100% means the codec never beat RAW), and the shape
    of the last committed manifest (payload bytes, page rows it added,
    ancestor manifests it lists).
    None when no store has published encoding metrics.
    """
    return _per_store_table(
        registry, names.G_STORE_COMPRESSION_RATIO,
        "  media%  compressed  delta  bytes saved  manifest B  page rows  lineage",
        [(names.C_STORE_PAGES_COMPRESSED, 10), (names.C_STORE_PAGES_DELTA, 5),
         (names.C_STORE_ENCODED_BYTES_SAVED, 11),
         (names.G_STORE_MANIFEST_BYTES, 10), (names.G_STORE_MANIFEST_PAGE_ROWS, 9),
         (names.G_STORE_MANIFEST_LINEAGE, 7)],
    )


def render_pagecache(registry: Registry) -> Optional[str]:
    """Per-store restore-side page-cache table.

    One row per store showing the demand hit rate (the permille gauge
    rendered as a percentage), hit/miss/eviction counts, and resident
    bytes — the ``sls stats`` view of whether lazy-restore faults are
    being served from cache or reading through to the device.  None
    when no store has bound its cache to a registry.
    """
    return _per_store_table(
        registry, names.G_PAGECACHE_HIT_RATE,
        "    hit%     hits   misses  evicted  resident",
        [(names.C_PAGECACHE_HITS, 7), (names.C_PAGECACHE_MISSES, 7),
         (names.C_PAGECACHE_EVICTIONS, 7), (names.G_PAGECACHE_BYTES, 8)],
    )


def render_registry(registry: Registry) -> str:
    """Counters/gauges as a table, histograms with summary stats."""
    counters = [i for i in registry.collect() if isinstance(i, (Counter, Gauge))]
    histograms = [i for i in registry.collect() if isinstance(i, Histogram)]
    lines: list[str] = []
    if counters:
        name_w = max(len(i.name + i.label_str) for i in counters)
        for inst in counters:
            kind = "G" if isinstance(inst, Gauge) else "C"
            lines.append(
                f"  {kind} {inst.name + inst.label_str:<{name_w}}  {inst.value}"
            )
    for hist in histograms:
        lines.append(
            f"  H {hist.name}{hist.label_str}  count={hist.count}"
            f" mean={fmt_time(int(hist.mean))}"
            f" p50={fmt_time(hist.quantile(0.5) or 0)}"
            f" p99={fmt_time(hist.quantile(0.99) or 0)}"
            f" max={fmt_time(hist.max or 0)}"
        )
    if not lines:
        return "  (no instruments registered)"
    return "\n".join(lines)
