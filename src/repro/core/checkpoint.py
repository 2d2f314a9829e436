"""Checkpoint images.

A :class:`CheckpointImage` "encapsulates all information required to
recreate the application, even across reboots and machines": the
serialized kernel-object metadata plus, per backend, a copy of its
pages: store page references in a snapshot (:class:`StoreCopy`) or
held frozen frames (:class:`MemoryCopy`).
Images chain to their parents; an incremental image's page map is the
parent's map overlaid with the interval's dirty pages, so every image
is *self-contained* for restore while sharing storage with history.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.metrics import CheckpointMetrics
from repro.mem.page import Page
from repro.objstore.image import Lineage
from repro.objstore.snapshot import Snapshot
from repro.objstore.store import ObjectStore
from repro.serial.memsnap import PageMap, StorePageMap
from repro.units import PAGE_SIZE

#: global image-id allocator.  The id is varint-encoded into snapshot
#: manifests, so its byte width leaks into flush timings — hermetic
#: harnesses (sls bench) pin this around a run to keep the numbers
#: independent of how many images the process already created.
_image_ids = itertools.count(1)


@dataclass(frozen=True)
class FlushInfo:
    """How one backend submitted this image's flush.

    Captured per persist from the device's submission-model deltas, so
    benchmarks and tests can assert doorbell amortization without
    reaching into device internals.
    """

    submitted_at_ns: int
    #: records staged in the store's WriteBatch and flushed
    records: int
    #: coalesced extents those records flushed as
    extents: int
    #: doorbells the whole persist rang (batch + meta + superblock)
    doorbells: int
    #: logical bytes flushed through the batch
    nbytes: int
    #: ns the submitter stalled on a full device queue
    submit_stall_ns: int
    #: flush shards (= submission queues) the batch spread over
    shards: int = 1


@dataclass
class StoreCopy:
    """An image's copy on one object store (disk, NVDIMM, received or
    imported): the snapshot committing it and its complete page map."""

    store: ObjectStore
    snapshot: Snapshot
    pages: StorePageMap
    #: the pagemap-delta records and manifests a post-reboot restore
    #: replays: this image's own first, then its lineage's back to the
    #: covering full checkpoint (what a child's manifest lists)
    lineage: Lineage = Lineage()
    #: submission accounting for the persist that wrote it
    flush: Optional[FlushInfo] = None


@dataclass
class MemoryCopy:
    """An image's copy in a memory backend: frozen frames, every slot.

    It holds a reference only on the frames its own freeze captured
    (plus, for a full image with a parent, the slots it inherited); an
    incremental reaches the rest through its parent's copy, which
    outlives it (pruning deletes whole segments).
    """

    pages: PageMap
    held: list[Page] = field(default_factory=list)

    def release(self, phys) -> int:
        """Drop the frame references this copy holds (deletion)."""
        held, self.held = self.held, []
        for page in held:
            phys.release(page)
        return len(held)


@dataclass
class CheckpointImage:
    """One checkpoint of one persistence group."""

    name: str
    group_name: str
    epoch: int
    incremental: bool
    meta: dict
    parent: Optional["CheckpointImage"] = None
    metrics: CheckpointMetrics = field(default_factory=CheckpointMetrics)
    #: backend name -> this image's copy there: where its pages live
    copies: dict[str, StoreCopy | MemoryCopy] = field(default_factory=dict)
    #: backends on which this image is durable (by name)
    durable_on: set = field(default_factory=set)
    #: backends whose flush failed (I/O error); image absent there
    failed_backends: list = field(default_factory=list)
    _on_durable: list = field(default_factory=list)
    #: observability hook fired once per backend as it confirms
    #: durability: ``hook(backend_name, when_ns)`` (repro.obs flush-lag
    #: telemetry; None when the host kernel has no interest)
    backend_durable_hook: Optional[Callable[[str, int], None]] = None
    #: process-global id; read through the module global so a hermetic
    #: harness (sls bench) can pin and restore the counter
    image_id: int = field(default_factory=lambda: next(_image_ids))

    # -- durability -------------------------------------------------------

    def mark_durable(self, backend_name: str, when_ns: int,
                     expected: int | None = None) -> None:
        """A backend finished flushing; fire callbacks once all have.

        The expected-backend count is read from the metrics at fire
        time (a backend that failed mid-flush lowers it), so a partial
        failure cannot wedge durability tracking.
        """
        if self.durable:
            return
        newly_durable = backend_name not in self.durable_on
        self.durable_on.add(backend_name)
        if newly_durable and self.backend_durable_hook is not None:
            self.backend_durable_hook(backend_name, when_ns)
        needed = self.metrics.backends_expected if expected is None else expected
        if len(self.durable_on) >= needed:
            self.metrics.durable_at_ns = when_ns
            callbacks, self._on_durable = self._on_durable, []
            for callback in callbacks:
                callback(self)

    @property
    def durable(self) -> bool:
        return bool(self.metrics.durable_at_ns)

    def on_durable(self, callback: Callable[["CheckpointImage"], None]) -> None:
        if self.durable:
            callback(self)
        else:
            self._on_durable.append(callback)

    # -- content accounting --------------------------------------------------

    def resident_pages(self) -> int:
        backend = self.default_backend()
        if backend is None:
            return 0
        return sum(len(pages) for pages in self.copies[backend].pages.values())

    def logical_bytes(self) -> int:
        return self.resident_pages() * PAGE_SIZE

    def default_backend(self) -> Optional[str]:
        """The backend a restore or a send reads when none is named:
        the one holding the in-memory copy, else the first store's."""
        for backend, copy in self.copies.items():
            if isinstance(copy, MemoryCopy):
                return backend
        return next(iter(self.copies), None)

    def __repr__(self) -> str:
        kind = "incr" if self.incremental else "full"
        return (
            f"<CheckpointImage {self.name!r} {kind} epoch={self.epoch}"
            f" pages={self.resident_pages()}>"
        )
