"""Aurora's checkpoint copy-on-write engine (§3 of the paper).

The standard fork-style COW scheme shadows objects per process, so a
write gives *that process* a private copy — which breaks shared-memory
semantics, and is why kernels refuse to mark shared pages COW.  Aurora
instead modifies the VM layer so that a copy-on-write fault creates a
new page **shared between all processes** mapping the object, while the
frozen original is handed to the checkpoint flusher.

Mechanism as implemented here:

1. At a checkpoint, :meth:`AuroraCow.freeze` marks pages immutable
   (``page.frozen``), takes a checkpoint reference on each frame, and
   write-protects every PTE mapping them (this arming is the "lazy
   data copy" row of Table 3 — the data itself is not copied).
2. A later write faults; :meth:`AuroraCow.resolve_frozen_write`
   allocates one replacement frame, copies the content, installs it in
   the *same VM object* (so every sharer observes it), updates all
   mapping PTEs, and logs the page as dirty for the next incremental
   checkpoint.
3. The frozen original — now referenced only by the checkpoint — is
   flushed in the background.  A page never modified again stays
   shared between the image and the application forever and is never
   flushed twice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.mem.address_space import MemContext
from repro.mem.page import Page
from repro.mem.vmobject import VMObject
from repro.obs import names as obs_names
from repro.obs.registry import attr_reader

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import KernelObs


@dataclass
class FrozenPage:
    """One page captured by a checkpoint freeze pass."""

    obj: VMObject
    pindex: int
    page: Page


@dataclass
class CowStats:
    pages_frozen: int = 0
    cow_faults: int = 0
    pte_updates: int = 0
    #: distinct frames handed to the flusher (never the same frame twice)
    frames_released_to_flush: int = 0


@dataclass
class FreezeSet:
    """Result of one freeze pass: the pages a checkpoint must persist."""

    epoch: int
    pages: list[FrozenPage] = field(default_factory=list)
    #: every VM object covered by the pass — including objects whose
    #: dirty pages were all swapped out (no resident page to freeze,
    #: but the backend must still capture their swap slots)
    objects: list[VMObject] = field(default_factory=list)
    #: (oid, pindex) pairs dirtied this interval but evicted to swap
    #: before the freeze — their content must be captured from swap,
    #: superseding any ref inherited from the parent image
    swapped_dirty: set = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.pages)


def _tagged(obj: VMObject, dirty: list[tuple[int, int, Page]]):
    """``obj``'s dirty entries as (seq, obj, pindex, page)."""
    for seq, pindex, page in dirty:
        yield seq, obj, pindex, page


class AuroraCow:
    """The checkpoint COW engine for one machine's memory context.

    Installing the engine hooks
    :attr:`~repro.mem.address_space.MemContext.frozen_write_handler`,
    which the fault path calls for writes that hit frozen pages.
    """

    def __init__(self, mem: MemContext):
        self.mem = mem
        self.stats = CowStats()
        self.obs: Optional["KernelObs"] = None
        self._g_depth = None
        mem.frozen_write_handler = self.resolve_frozen_write

    def attach_obs(self, obs: "KernelObs") -> None:
        """Wire the kernel's observability plane.  The counters are
        views of :class:`CowStats`; the shadow-depth ratchet, which
        nothing else keeps, is pushed at each freeze."""
        self.obs = obs
        reg, stats = obs.registry, self.stats
        reg.counter(obs_names.C_COW_PAGES_FROZEN, attr_reader(stats, "pages_frozen"))
        reg.counter(obs_names.C_COW_FAULTS, attr_reader(stats, "cow_faults"))
        reg.counter(obs_names.C_COW_PTE_UPDATES, attr_reader(stats, "pte_updates"))
        self._g_depth = reg.gauge(obs_names.G_SHADOW_DEPTH)

    # -- freeze (checkpoint-side) ------------------------------------------

    def freeze(self, objects: list[VMObject], incremental_since: int | None = None) -> FreezeSet:
        """Arm COW tracking over ``objects`` and capture their pages.

        With ``incremental_since`` set, only pages dirtied at or after
        that epoch are captured: the objects' dirty lists make this a
        walk of the dirty set, not of the whole resident set (the 7×
        lazy-copy speedup of Table 3), and only of these objects' lists.
        Without it, every resident page is captured (a full checkpoint).
        Either way the pass consumes the objects' dirty lists.

        Advances the memory epoch so subsequent writes are attributed
        to the next checkpoint interval.
        """
        mem = self.mem
        cpu = mem.cpu
        freeze_set = FreezeSet(epoch=mem.epoch, objects=list(objects))
        if incremental_since is None:
            for obj in objects:
                obj.dirty = []
                for pindex, page in obj.iter_resident():
                    self._capture(freeze_set, obj, pindex, page, cpu.pte_cow_arm_ns)
        else:
            # Merging by sequence number (unique, so the tuples never
            # compare past it) visits the pages in the order they
            # became dirty, across objects — the capture order, and so
            # the extent layout, of one machine-wide log.
            logs = []
            for obj in objects:
                if obj.dirty:
                    logs.append(_tagged(obj, obj.dirty))
                    obj.dirty = []
            seen: set[tuple[int, int]] = set()
            for _, obj, pindex, page in heapq.merge(*logs):
                if page.dirty_epoch < incremental_since:
                    continue
                key = (obj.oid, pindex)
                if key in seen:
                    continue
                seen.add(key)
                # The logged page may have been COW-replaced again or
                # evicted; capture whatever is resident now.
                current = obj.resident_page(pindex)
                if current is None:
                    if pindex in obj.swap_slots:
                        # Dirtied, then paged out: the fresh content
                        # lives in swap and must supersede the parent
                        # image's copy.
                        freeze_set.swapped_dirty.add((obj.oid, pindex))
                    continue
                self._capture(freeze_set, obj, pindex, current, cpu.pte_cow_arm_incr_ns)
        mem.epoch += 1
        if self.obs is not None:
            self._g_depth.set_max(max(
                (self._shadow_depth(obj) for obj in objects), default=0
            ))
            self.obs.tracer.event(
                obs_names.EV_COW_FREEZE,
                pages=len(freeze_set.pages),
                objects=len(objects),
                epoch=freeze_set.epoch,
                incremental=incremental_since is not None,
            )
        return freeze_set

    @staticmethod
    def _shadow_depth(obj: VMObject) -> int:
        """Length of the shadow chain hanging off ``obj``."""
        depth = 0
        chain = obj.shadow
        while chain is not None:
            depth += 1
            chain = chain.shadow
        return depth

    def _capture(
        self,
        freeze_set: FreezeSet,
        obj: VMObject,
        pindex: int,
        page: Page,
        arm_cost_ns: float,
    ) -> None:
        mem = self.mem
        if not page.frozen:
            page.frozen = True
        mem.phys.hold(page)  # the checkpoint's reference
        # Write-protect the PTE in every process mapping this page.
        protected = 0
        for entry in obj.mappings:
            vpn = entry.start_vpn + (pindex - entry.offset_pages)
            if entry.start_vpn <= vpn < entry.end_vpn:
                if entry.aspace.pagetable.write_protect(vpn):
                    protected += 1
        mem.charge(arm_cost_ns * max(1, protected))
        self.stats.pages_frozen += 1
        freeze_set.pages.append(FrozenPage(obj=obj, pindex=pindex, page=page))

    # -- fault resolution (application-side) ---------------------------------

    def resolve_frozen_write(self, obj: VMObject, pindex: int, frozen: Page) -> Page:
        """Replace a frozen page with a fresh frame shared by all mappers.

        Returns the replacement page.  The frozen frame's object
        reference moves to the checkpoint (the object releases it); the
        checkpoint's own reference from :meth:`freeze` keeps it alive
        until flushed/dropped.
        """
        mem = self.mem
        replacement = mem.phys.copy(frozen)
        replacement.dirty_epoch = mem.epoch
        mem.charge(mem.cpu.cow_fault_ns)
        # insert_page releases the object's reference on the frozen frame.
        obj.insert_page(pindex, replacement)
        # Every process mapping the object sees the replacement: shared
        # memory semantics are preserved (the paper's key COW change).
        for entry in obj.mappings:
            vpn = entry.start_vpn + (pindex - entry.offset_pages)
            if entry.start_vpn <= vpn < entry.end_vpn:
                from repro.mem.address_space import PROT_WRITE  # cycle-safe

                writable = bool(entry.prot & PROT_WRITE)
                if entry.aspace.pagetable.update_page(vpn, replacement, writable):
                    mem.charge(mem.cpu.pte_install_ns)
                    self.stats.pte_updates += 1
        mem.log_dirty(obj, pindex, replacement)
        self.stats.cow_faults += 1
        self.stats.frames_released_to_flush += 1
        if self.obs is not None:
            self.obs.tracer.event(
                obs_names.EV_COW_FAULT, oid=obj.oid, pindex=pindex
            )
        return replacement
