"""In-place garbage collection.

The COW layout "enables in-place garbage collection without needing to
rewrite incremental checkpoints" (paper §3): when the last snapshot
referencing a record or page extent is deleted, the extent lands on
the store's garbage list, and :class:`GarbageCollector` hands it back
to the allocator — no compaction, no rewriting of surviving data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fault import names as fault_names
from repro.obs import names as obs_names
from repro.objstore.store import ObjectStore


@dataclass
class GcReport:
    extents_freed: int = 0
    bytes_freed: int = 0


class GarbageCollector:
    """Reclaims dead extents in place."""

    def __init__(self, store: ObjectStore):
        self.store = store

    def collect(self, limit: int | None = None) -> GcReport:
        """Free up to ``limit`` garbage extents (all, by default).

        Nothing runs GC on its own: the caller does, and bounding the
        batch lets it interleave GC with checkpointing instead of
        stalling.
        """
        if self.store.faults is not None:
            self.store._failpoint(
                fault_names.FP_GC_COLLECT,
                "power cut during gc", "injected gc failure",
                store=self.store.device.name,
                pending=len(self.store.garbage),
            )
        obs = self.store.obs
        if obs is None:
            return self._collect(limit)
        with obs.tracer.span(
            obs_names.SPAN_GC, store=self.store.device.name
        ) as span:
            report = self._collect(limit)
            span.set(extents=report.extents_freed, bytes=report.bytes_freed)
        if report.extents_freed:
            store_name = self.store.device.name
            reg = obs.registry
            reg.counter(
                obs_names.C_GC_EXTENTS_FREED, store=store_name
            ).inc(report.extents_freed)
            reg.counter(
                obs_names.C_GC_BYTES_FREED, store=store_name
            ).inc(report.bytes_freed)
            obs.tracer.event(
                obs_names.EV_GC_RECLAIM,
                store=store_name,
                extents=report.extents_freed,
                bytes=report.bytes_freed,
            )
        return report

    def _collect(self, limit: int | None) -> GcReport:
        report = GcReport()
        budget = limit if limit is not None else len(self.store.garbage)
        while self.store.garbage and report.extents_freed < budget:
            extent = self.store.garbage.pop()
            self.store.free_garbage(extent)
            report.extents_freed += 1
            report.bytes_freed += extent.length
        return report

    def pending(self) -> int:
        return len(self.store.garbage)
