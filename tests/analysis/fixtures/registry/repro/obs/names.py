"""Fixture observability catalogue."""

SPAN_CHECKPOINT = "sls.checkpoint"
COUNTER_UNUSED = "objstore.unused_total"
GAUGE_RATIO = "demo.ratio_permille"
