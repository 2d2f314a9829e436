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


def _store_value(registry: Registry, name: str, store: str) -> int:
    """Total of the counters/gauges called ``name`` labelled ``store``."""
    return sum(
        inst.value for inst in registry.collect()
        if inst.name == name and inst.labels.get("store", "?") == store
    )


def render_scrub_progress(registry: Registry) -> Optional[str]:
    """Per-store scrub table from the scrubber's exported instruments.

    One row per store showing progress (permille gauge rendered as a
    percentage), extents verified, and errors found — the ``sls stats``
    view of how far the background checksum scrub has gotten and
    whether it has anything for ``sls fsck --repair``.  None when no
    scrubber has published progress.
    """
    progress = {
        inst.labels.get("store", "?"): inst
        for inst in registry.collect()
        if isinstance(inst, Gauge) and inst.name == names.G_SCRUB_PROGRESS
    }
    if not progress:
        return None

    store_w = max(len("store"), max(len(s) for s in progress))
    lines = [f"  {'store':<{store_w}}  scrub%  extents  errors"]
    for store in sorted(progress):
        pct = progress[store].value / 10.0
        lines.append(
            f"  {store:<{store_w}}  {pct:6.1f}"
            f"  {_store_value(registry, names.C_SCRUB_EXTENTS, store):>7}"
            f"  {_store_value(registry, names.C_SCRUB_ERRORS, store):>6}"
        )
    return "\n".join(lines)


def render_store_encoding(registry: Registry) -> Optional[str]:
    """Per-store write-path codec table from the encoding instruments.

    One row per store showing how the classify/encode stage split the
    page records (compressed / delta counts), the media bytes it saved,
    the compression ratio (the ``media/raw`` permille gauge rendered as
    a percentage — 100% means the codec never beat RAW), and the shape
    of the last committed manifest (payload bytes, page rows).
    None when no store has published encoding metrics.
    """
    ratio = {
        inst.labels.get("store", "?"): inst
        for inst in registry.collect()
        if isinstance(inst, Gauge)
        and inst.name == names.G_STORE_COMPRESSION_RATIO
    }
    if not ratio:
        return None

    store_w = max(len("store"), max(len(s) for s in ratio))
    lines = [
        f"  {'store':<{store_w}}  media%  compressed  delta  bytes saved"
        f"  manifest B  page rows"
    ]
    for store in sorted(ratio):
        pct = ratio[store].value / 10.0
        lines.append(
            f"  {store:<{store_w}}  {pct:6.1f}"
            f"  {_store_value(registry, names.C_STORE_PAGES_COMPRESSED, store):>10}"
            f"  {_store_value(registry, names.C_STORE_PAGES_DELTA, store):>5}"
            f"  {_store_value(registry, names.C_STORE_ENCODED_BYTES_SAVED, store):>11}"
            f"  {_store_value(registry, names.G_STORE_MANIFEST_BYTES, store):>10}"
            f"  {_store_value(registry, names.G_STORE_MANIFEST_PAGE_ROWS, store):>9}"
        )
    return "\n".join(lines)


def render_pagecache(registry: Registry) -> Optional[str]:
    """Per-store restore-side page-cache table.

    One row per store showing the demand hit rate (the permille gauge
    rendered as a percentage), hit/miss/eviction counts, and resident
    bytes — the ``sls stats`` view of whether lazy-restore faults are
    being served from cache or reading through to the device.  None
    when no store has bound its cache to a registry.
    """
    hit_rate = {
        inst.labels.get("store", "?"): inst
        for inst in registry.collect()
        if isinstance(inst, Gauge) and inst.name == names.G_PAGECACHE_HIT_RATE
    }
    if not hit_rate:
        return None

    store_w = max(len("store"), max(len(s) for s in hit_rate))
    lines = [f"  {'store':<{store_w}}    hit%     hits   misses  evicted  resident"]
    for store in sorted(hit_rate):
        pct = hit_rate[store].value / 10.0
        lines.append(
            f"  {store:<{store_w}}  {pct:6.1f}"
            f"  {_store_value(registry, names.C_PAGECACHE_HITS, store):>7}"
            f"  {_store_value(registry, names.C_PAGECACHE_MISSES, store):>7}"
            f"  {_store_value(registry, names.C_PAGECACHE_EVICTIONS, store):>7}"
            f"  {_store_value(registry, names.G_PAGECACHE_BYTES, store):>8}"
        )
    return "\n".join(lines)


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
