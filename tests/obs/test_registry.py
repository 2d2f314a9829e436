"""Registry: typed instruments, label identity, kind collisions."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    ObsError,
    Registry,
    attr_reader,
)


class TestCounters:
    def test_get_or_create_is_identity(self):
        reg = Registry()
        a = reg.counter("x_total", group="g")
        b = reg.counter("x_total", group="g")
        assert a is b
        a.inc(3)
        assert b.value == 3

    def test_labels_partition_series(self):
        reg = Registry()
        reg.counter("x_total", group="a").inc(1)
        reg.counter("x_total", group="b").inc(2)
        assert reg.get("x_total", group="a").value == 1
        assert reg.get("x_total", group="b").value == 2

    def test_negative_increment_rejected(self):
        reg = Registry()
        with pytest.raises(ObsError):
            reg.counter("x_total").inc(-1)


class TestGauges:
    def test_set_add_and_ratchet(self):
        reg = Registry()
        g = reg.gauge("depth")
        g.set(5)
        g.add(-2)
        assert g.value == 3
        g.set_max(10)
        g.set_max(7)  # lower values do not regress the ratchet
        assert g.value == 10


class TestReaderBackedInstruments:
    """A counter or gauge registered with a reader is a view: its value
    is computed when read, so nothing is pushed per event."""

    def test_value_is_read_when_asked(self):
        stats = SimpleNamespace(pages=0, ratio=0)
        reg = Registry()
        counter = reg.counter("pages_total", attr_reader(stats, "pages"), store="a")
        gauge = reg.gauge("ratio", attr_reader(stats, "ratio"), store="a")
        stats.pages, stats.ratio = 7, 250
        assert counter.value == 7 and gauge.value == 250
        assert reg.snapshot()["counters"][0]["value"] == 7
        stats.pages += 1
        assert reg.get("pages_total", store="a").value == 8

    def test_counter_readers_under_one_key_sum(self):
        first, second = SimpleNamespace(n=3), SimpleNamespace(n=4)
        reg = Registry()
        reg.counter("n_total", attr_reader(first, "n"), store="nvme0")
        counter = reg.counter("n_total", attr_reader(second, "n"), store="nvme0")
        assert counter.value == 7
        counter.inc(2)  # a push adds to what the readers report
        assert counter.value == 9
        assert reg.counter("n_total", store="other").value == 0

    def test_a_later_gauge_reader_replaces_the_earlier(self):
        first, second = SimpleNamespace(v=10), SimpleNamespace(v=20)
        reg = Registry()
        reg.gauge("v", attr_reader(first, "v"))
        gauge = reg.gauge("v", attr_reader(second, "v"))
        assert gauge.value == 20


class TestHistograms:
    def test_observe_and_summary_stats(self):
        reg = Registry()
        h = reg.histogram("lat_ns")
        for v in (500, 5_000, 50_000):
            h.observe(v)
        assert h.count == 3
        assert h.total == 55_500
        assert h.min == 500
        assert h.max == 50_000
        assert h.mean == pytest.approx(18_500)

    def test_quantile_returns_bucket_bound(self):
        reg = Registry()
        h = reg.histogram("lat_ns", buckets=(10, 100, 1000))
        for v in (5, 5, 5, 500):
            h.observe(v)
        assert h.quantile(0.5) == 10
        assert h.quantile(1.0) == 1000

    def test_empty_quantile_is_none(self):
        reg = Registry()
        assert reg.histogram("lat_ns").quantile(0.5) is None


class TestRegistry:
    def test_kind_collision_rejected(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(ObsError):
            reg.gauge("x")
        with pytest.raises(ObsError):
            reg.histogram("x")

    def test_collect_is_sorted_and_typed(self):
        reg = Registry()
        reg.gauge("g")
        reg.counter("c", a="2")
        reg.counter("c", a="1")
        reg.histogram("h")
        collected = reg.collect()
        assert [type(i) for i in collected] == [Counter, Counter, Gauge, Histogram]
        assert [i.label_str for i in collected[:2]] == ['{a=1}', '{a=2}']

    def test_snapshot_is_plain_data(self):
        reg = Registry()
        reg.counter("c").inc(4)
        reg.histogram("h").observe(10)
        snap = reg.snapshot()
        assert snap["counters"] == [{"name": "c", "labels": {}, "value": 4}]
        assert snap["histograms"][0]["count"] == 1
        assert snap["histograms"][0]["total"] == 10
