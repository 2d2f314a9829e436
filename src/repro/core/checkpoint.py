"""Checkpoint images.

A :class:`CheckpointImage` "encapsulates all information required to
recreate the application, even across reboots and machines": the
serialized kernel-object metadata plus, per backend, either store page
references (disk/NVDIMM/remote) or held frozen frames (memory).
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
class CheckpointImage:
    """One checkpoint of one persistence group.

    A memory image holds only the frames its own freeze captured, and
    an incremental reaches the rest of ``memory_pages`` through
    ``parent``, which outlives it (pruning deletes whole segments).
    """

    name: str
    group_name: str
    epoch: int
    incremental: bool
    meta: dict
    parent: Optional["CheckpointImage"] = None
    metrics: CheckpointMetrics = field(default_factory=CheckpointMetrics)
    #: backend name -> store snapshot (disk-like backends)
    snapshots: dict[str, Snapshot] = field(default_factory=dict)
    #: backend name -> page map of PageRefs (disk-like backends)
    page_refs: dict[str, StorePageMap] = field(default_factory=dict)
    #: backend name -> the pagemap-delta records and manifests a
    #: post-reboot restore replays: this image's own first, then its
    #: lineage's back to the covering full checkpoint (what a child's
    #: manifest lists)
    store_lineage: dict[str, Lineage] = field(default_factory=dict)
    #: backend name -> submission accounting for this image's flush
    flush_info: dict[str, "FlushInfo"] = field(default_factory=dict)
    #: memory-backend page map of frozen frames (every slot)
    memory_pages: Optional[PageMap] = None
    #: name of the memory backend whose freeze captured ``memory_pages``
    memory_backend: Optional[str] = None
    #: frames this image holds a reference on: those it captured, and a
    #: full image's inherited slots when it has a parent
    _held_frames: list[Page] = field(default_factory=list)
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
        page_map = self.any_page_map()
        return sum(len(pages) for pages in page_map.values()) if page_map else 0

    def logical_bytes(self) -> int:
        return self.resident_pages() * PAGE_SIZE

    def any_page_map(self) -> Optional[PageMap]:
        if self.memory_pages is not None:
            return self.memory_pages
        for page_map in self.page_refs.values():
            return page_map
        return None

    def delta_pages(self) -> int:
        """Pages newly captured by this image (vs inherited)."""
        return self.metrics.pages_captured

    # -- lifecycle ----------------------------------------------------------------

    def release_memory(self, phys) -> int:
        """Drop the frame references this memory image holds (deletion)."""
        held, self._held_frames = self._held_frames, []
        for page in held:
            phys.release(page)
        self.memory_pages = None
        return len(held)

    def lineage(self) -> list["CheckpointImage"]:
        """This image and its ancestors, newest first."""
        out: list[CheckpointImage] = []
        image: Optional[CheckpointImage] = self
        while image is not None:
            out.append(image)
            image = image.parent
        return out

    def __repr__(self) -> str:
        kind = "incr" if self.incremental else "full"
        return (
            f"<CheckpointImage {self.name!r} {kind} epoch={self.epoch}"
            f" pages={self.resident_pages()}>"
        )
