"""The three per-store tables of ``sls stats`` (one column spec each)."""

from repro.obs import (
    names,
    render_pagecache,
    render_scrub_progress,
    render_store_encoding,
)
from repro.obs.registry import Registry


def test_per_store_tables_render_one_aligned_row_per_store():
    reg = Registry()
    for store, permille in (("nvme0", 333), ("replica-nvme", 1000)):
        reg.gauge(names.G_SCRUB_PROGRESS, store=store).set(permille)
        reg.counter(names.C_SCRUB_EXTENTS, store=store).inc(120)
        reg.gauge(names.G_PAGECACHE_HIT_RATE, store=store).set(permille)
        reg.counter(names.C_PAGECACHE_HITS, store=store).inc(99)
        reg.gauge(names.G_PAGECACHE_BYTES, store=store).set(28672)
    reg.counter(names.C_SCRUB_ERRORS, store="nvme0").inc(2)
    # a histogram and an instrument of another store's table ride along
    reg.histogram(names.H_RESTORE_FAULT, store="nvme0").observe(5)
    assert render_scrub_progress(reg).splitlines() == [
        "  store         scrub%  extents  errors",
        "  nvme0           33.3      120       2",
        "  replica-nvme   100.0      120       0",
    ]
    assert render_pagecache(reg).splitlines() == [
        "  store           hit%     hits   misses  evicted  resident",
        "  nvme0           33.3       99        0        0     28672",
        "  replica-nvme   100.0       99        0        0     28672",
    ]
    # no store published the codec's key gauge: no table at all
    assert render_store_encoding(reg) is None
