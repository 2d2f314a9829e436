"""A shim kept only for the end-to-end benchmark harness, until ROADMAP
item 1 moves the harness off it and deletes it.  The store reclaims at
its commit point (``ObjectStore._reclaim_dead``); ``collect()`` runs the
same reclaim and reports it."""

from dataclasses import dataclass

from repro.objstore.store import ObjectStore


@dataclass
class GcReport:
    extents_freed: int = 0
    bytes_freed: int = 0


class GarbageCollector:
    def __init__(self, store: ObjectStore):
        self.store = store

    def collect(self) -> GcReport:
        freed = self.store._reclaim_dead()
        return GcReport(len(freed), sum(extent.length for extent in freed))
