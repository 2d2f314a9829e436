"""Workload generation for the evaluation harness.

A YCSB-style driver for the key-value server: configurable read/write
mix and Zipf-skewed key popularity (hot sets are what make lazy
restore and incremental checkpointing interesting).  Deterministic via
the seeded RNG streams, so benchmark runs are exactly repeatable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.kvstore import RedisLikeServer
from repro.sim.rng import RngFactory, zipf_sampler


@dataclass
class WorkloadSpec:
    """One workload mix (names follow the YCSB lettering loosely)."""

    name: str
    read_fraction: float = 0.5
    zipf_skew: float = 0.99

    def __post_init__(self):
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.zipf_skew < 0:
            raise ValueError("zipf_skew must be non-negative")


#: update heavy (50/50), like YCSB-A
WORKLOAD_A = WorkloadSpec("A-update-heavy", read_fraction=0.5)
#: read mostly (95/5), like YCSB-B
WORKLOAD_B = WorkloadSpec("B-read-mostly", read_fraction=0.95)
#: read only, like YCSB-C
WORKLOAD_C = WorkloadSpec("C-read-only", read_fraction=1.0)
#: write only (ingest)
WORKLOAD_INGEST = WorkloadSpec("ingest", read_fraction=0.0)


@dataclass
class WorkloadStats:
    reads: int = 0
    writes: int = 0
    #: distinct slots written (the true dirty set per interval)
    dirty_slots: set = field(default_factory=set)

    @property
    def operations(self) -> int:
        return self.reads + self.writes

    def reset_interval(self) -> int:
        """New checkpoint interval: returns and clears the dirty count."""
        dirtied = len(self.dirty_slots)
        self.dirty_slots.clear()
        return dirtied


class KvWorkload:
    """Drives a :class:`RedisLikeServer` with a :class:`WorkloadSpec`."""

    def __init__(
        self,
        server: RedisLikeServer,
        spec: WorkloadSpec = WORKLOAD_A,
        seed: int = 1,
    ):
        self.server = server
        self.spec = spec
        rng = RngFactory(seed)
        self._op_rng = rng.stream(f"{spec.name}:ops")
        self._key = zipf_sampler(
            rng.stream(f"{spec.name}:keys"), server.nslots, skew=spec.zipf_skew
        )
        self.stats = WorkloadStats()

    def run_ops(self, count: int) -> WorkloadStats:
        """Execute ``count`` operations against the server."""
        for _ in range(count):
            slot = self._key()
            if self._op_rng.random() < self.spec.read_fraction:
                self.server.get(slot)
                self.stats.reads += 1
            else:
                self.server.set(slot, b"val-%d" % self.stats.writes)
                self.stats.writes += 1
                self.stats.dirty_slots.add(slot)
        return self.stats
