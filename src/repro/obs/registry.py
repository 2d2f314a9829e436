"""Typed counters, gauges, and histograms.

One :class:`Registry` exists per kernel (``kernel.obs.registry``) and
outlives every checkpoint/restore cycle: instruments live in *kernel*
state, not in any persisted process image, so restoring an application
never resets its host's statistics.

Instruments are registered lazily and keyed by ``(name, labels)``;
repeated ``registry.counter("x", backend="disk0")`` calls return the
same object, so hot paths can also cache the instrument once and call
``inc()`` directly.

A counter or gauge that mirrors a count a component already keeps is
a *view*: registered once with a ``reader`` function, its value is
computed when read, and nothing is done per event.  Readers capture
the component's stats object, so a registry never keeps the rest of a
component (a store's device contents) alive.
"""

from __future__ import annotations

import bisect
from functools import partial
from typing import Callable, Iterable, Optional

from repro.errors import AuroraError

#: default histogram bucket upper bounds, in virtual nanoseconds
#: (1 µs … 10 s, decade-spaced — checkpoint costs are µs-to-ms scale)
DEFAULT_BUCKETS_NS = (
    1_000, 10_000, 100_000,
    1_000_000, 10_000_000, 100_000_000,
    1_000_000_000, 10_000_000_000,
)

LabelKey = "tuple[tuple[str, str], ...]"


class ObsError(AuroraError):
    """Misuse of the observability registry (kind/name collisions)."""


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def attr_reader(obj, name: str) -> Callable[[], int]:
    """A reader of ``obj.<name>`` that holds ``obj`` and nothing else."""
    return partial(getattr, obj, name)


class Instrument:
    """Base: a named, labelled metric."""

    kind = "abstract"

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = dict(labels)

    @property
    def label_str(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}{self.label_str}>"


class Counter(Instrument):
    """Monotonically increasing count: what ``inc`` pushed plus the sum
    of its readers, so components that share a label set add up."""

    kind = "counter"

    def __init__(self, name: str, labels: dict):
        super().__init__(name, labels)
        self._count = 0
        self._readers: list[Callable[[], int]] = []

    @property
    def value(self) -> int:
        return self._count + sum(read() for read in self._readers)

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ObsError(f"counter {self.name} cannot decrease (inc {n})")
        self._count += n


class Gauge(Instrument):
    """A value that can move both ways (depths, occupancy, rates).

    A gauge with a reader shows the reader's value; pushes (``set``,
    ``add``, ``set_max``) are for gauges without one.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: dict):
        super().__init__(name, labels)
        self._value = 0
        self._reader: Optional[Callable[[], int]] = None

    @property
    def value(self):
        return self._value if self._reader is None else self._reader()

    def set(self, value) -> None:
        self._value = value

    def add(self, delta) -> None:
        self._value += delta

    def set_max(self, value) -> None:
        """Ratchet: keep the maximum ever observed."""
        if value > self._value:
            self._value = value


class Histogram(Instrument):
    """Fixed-bucket histogram of virtual-time durations (or sizes)."""

    kind = "histogram"

    def __init__(self, name: str, labels: dict,
                 buckets: Iterable[int] = DEFAULT_BUCKETS_NS):
        super().__init__(name, labels)
        self.bounds = tuple(sorted(buckets))
        if not self.bounds:
            raise ObsError(f"histogram {name} needs at least one bucket")
        #: per-bucket counts; one extra slot for > last bound
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[int]:
        """Approximate quantile: the bucket upper bound covering ``q``
        of the observations, never above the largest one observed
        (``max``, which the overflow bucket also answers)."""
        if not self.count:
            return None
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target and n:
                return min(self.bounds[i], self.max) if i < len(self.bounds) else self.max
        return self.max


class Registry:
    """All instruments of one kernel, keyed by (name, labels)."""

    def __init__(self):
        self._instruments: dict[tuple, Instrument] = {}
        #: every name maps to exactly one kind, labels notwithstanding
        self._kinds: dict[str, str] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs) -> Instrument:
        known = self._kinds.get(name)
        if known is not None and known != cls.kind:
            raise ObsError(f"{name!r} already registered as a {known}")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels, **kwargs)
            self._instruments[key] = instrument
            self._kinds[name] = cls.kind
        return instrument

    def counter(self, name: str, reader: Optional[Callable[[], int]] = None,
                **labels) -> Counter:
        """The counter under ``(name, labels)``; a ``reader`` makes it
        (also) a view of that count.  Readers under one key sum."""
        counter = self._get(Counter, name, labels)
        if reader is not None:
            counter._readers.append(reader)
        return counter

    def gauge(self, name: str, reader: Optional[Callable[[], int]] = None,
              **labels) -> Gauge:
        """The gauge under ``(name, labels)``; a ``reader`` makes it a
        view of that value.  A gauge reads one component: a later
        reader under the same key replaces the earlier one."""
        gauge = self._get(Gauge, name, labels)
        if reader is not None:
            gauge._reader = reader
        return gauge

    def histogram(self, name: str, buckets: Optional[Iterable[int]] = None,
                  **labels) -> Histogram:
        if buckets is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- access ----------------------------------------------------------------

    def collect(self) -> list[Instrument]:
        """Every registered instrument, sorted by (name, labels)."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def get(self, name: str, **labels) -> Optional[Instrument]:
        """Look up without creating (None if never registered)."""
        return self._instruments.get((name, _label_key(labels)))

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument's current state."""
        out: dict = {"counters": [], "gauges": [], "histograms": []}
        for inst in self.collect():
            if isinstance(inst, Counter):
                out["counters"].append(
                    {"name": inst.name, "labels": inst.labels, "value": inst.value}
                )
            elif isinstance(inst, Gauge):
                out["gauges"].append(
                    {"name": inst.name, "labels": inst.labels, "value": inst.value}
                )
            elif isinstance(inst, Histogram):
                out["histograms"].append(
                    {
                        "name": inst.name,
                        "labels": inst.labels,
                        "count": inst.count,
                        "total": inst.total,
                        "min": inst.min,
                        "max": inst.max,
                        "bounds": list(inst.bounds),
                        "counts": list(inst.counts),
                    }
                )
        return out

    def __len__(self) -> int:
        return len(self._instruments)
