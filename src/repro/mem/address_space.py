"""Address spaces (``vm_map``) and the page-fault path.

An :class:`AddressSpace` is an ordered set of :class:`VMEntry` ranges,
each mapping a window of a :class:`~repro.mem.vmobject.VMObject` with a
protection and an inheritance mode (shared vs private).  The fault
handler here implements the full resolution order — PTE hit, resident
in object, shadow-chain copy-up, pager, zero-fill — and defers frozen
pages (checkpoint COW) to the engine installed in the
:class:`MemContext`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import MappingError, SegmentationFault
from repro.hw.specs import DEFAULT_CPU, CpuCostModel
from repro.mem.page import Page
from repro.mem.pagetable import PageTable
from repro.mem.phys import PhysicalMemory
from repro.mem.vmobject import ObjectKind, VMObject
from repro.sim.clock import SimClock
from repro.units import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, page_align_up

PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_RW = PROT_READ | PROT_WRITE

#: Default base of the mmap region (keeps low addresses free for text/data).
MMAP_BASE = 0x1000_0000


@dataclass
class FaultStats:
    """Counters for the fault path; several experiments report these."""

    minor: int = 0
    major: int = 0
    cow: int = 0
    zero_fill: int = 0
    pager_in: int = 0

    def total(self) -> int:
        return self.minor + self.major


class MemContext:
    """Shared machine memory state: clock, physical pool, cost model.

    Also carries the *checkpoint epoch* (advanced by the orchestrator at
    every checkpoint) and the pluggable frozen-write resolver installed
    by the Aurora COW engine.

    Dirty state does not live here: each VM object keeps its own dirty
    list, so an exited process's entries go with its objects and a
    freeze reads only the objects it captures.  The context only hands
    out the sequence numbers that let a freeze merge those lists back
    into the order the pages became dirty.
    """

    def __init__(
        self,
        clock: SimClock,
        phys: PhysicalMemory,
        cpu: CpuCostModel = DEFAULT_CPU,
    ):
        self.clock = clock
        self.phys = phys
        self.cpu = cpu
        self.stats = FaultStats()
        #: current checkpoint epoch; pages stamp their dirty_epoch with it
        self.epoch = 1
        #: resolver for writes hitting frozen pages; installed by
        #: :class:`repro.mem.cow.AuroraCow`
        self.frozen_write_handler: Optional[
            Callable[[VMObject, int, Page], Page]
        ] = None
        #: orders dirty entries across objects: one sequence per
        #: machine, so merging any set of objects' dirty lists by it
        #: yields their pages in the order they became dirty
        self._dirty_seq = 0
        #: this machine's address-space ids
        self.asids = itertools.count(1)
        self._charge_carry = 0.0

    def log_dirty(self, obj: VMObject, pindex: int, page: Page) -> None:
        """Record that ``page`` was dirtied in the current epoch.

        The entry goes on the object's own :attr:`VMObject.dirty` list,
        so it dies with the object; incremental checkpoints walk these
        lists instead of scanning page tables (the 7× lazy-copy win of
        Table 3).
        """
        page.dirty_epoch = self.epoch
        obj.dirty.append((self._dirty_seq, pindex, page))
        self._dirty_seq += 1

    def log_dirty_run(self, obj: VMObject, pindexes: Sequence[int],
                      pages: Sequence[Page]) -> None:
        """:meth:`log_dirty` ``pages`` at ``pindexes``, pairwise, with
        consecutive sequence numbers."""
        epoch = self.epoch
        for page in pages:
            page.dirty_epoch = epoch
        seq = self._dirty_seq
        self._dirty_seq = seq + len(pages)
        obj.dirty.extend(zip(range(seq, seq + len(pages)), pindexes, pages))

    def charge(self, ns: float) -> None:
        """Charge fractional nanoseconds, carrying the remainder.

        Per-page costs are a few ns (or less); accumulating the
        fractional part keeps multi-million-page walks accurate.
        """
        total = ns + self._charge_carry
        whole = int(total)
        self._charge_carry = total - whole
        if whole > 0:
            self.clock.advance(whole)

    def charge_each(self, costs: Iterable[float]) -> None:
        """:meth:`charge` each of ``costs`` in turn: the same carries
        and the same total, in one clock advance."""
        carry = self._charge_carry
        whole = 0
        for ns in costs:
            total = ns + carry
            step = int(total)
            carry = total - step
            if step > 0:
                whole += step
        self._charge_carry = carry
        if whole > 0:
            self.clock.advance(whole)


@dataclass
class VMEntry:
    """One mapped range of an address space."""

    start: int
    end: int
    obj: VMObject
    offset_pages: int
    prot: int
    shared: bool
    name: str = ""
    #: sls_mctl: excluded ranges are not captured by checkpoints
    sls_exclude: bool = False
    #: sls_mctl lazy-restore hint: "", "eager", or "lazy"
    restore_hint: str = ""
    aspace: "AddressSpace" = field(default=None, repr=False)  # type: ignore[assignment]

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def start_vpn(self) -> int:
        return self.start >> PAGE_SHIFT

    @property
    def end_vpn(self) -> int:
        return self.end >> PAGE_SHIFT

    def pindex_of(self, vpn: int) -> int:
        return self.offset_pages + (vpn - self.start_vpn)

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


class AddressSpace:
    """A process's virtual memory map plus its page table."""

    def __init__(self, mem: MemContext, name: str = ""):
        self.asid = next(mem.asids)
        self.mem = mem
        self.name = name or f"as{self.asid}"
        self.pagetable = PageTable()
        self.entries: list[VMEntry] = []

    # -- map management ------------------------------------------------------

    def _find_free(self, length: int) -> int:
        addr = MMAP_BASE
        for entry in self.entries:
            if addr + length <= entry.start:
                return addr
            addr = max(addr, entry.end)
        return addr

    def _overlaps(self, start: int, end: int) -> bool:
        return any(e.start < end and start < e.end for e in self.entries)

    def mmap(
        self,
        length: int,
        prot: int = PROT_RW,
        shared: bool = False,
        obj: Optional[VMObject] = None,
        offset: int = 0,
        addr: Optional[int] = None,
        name: str = "",
    ) -> VMEntry:
        """Map ``length`` bytes; anonymous unless ``obj`` is given.

        Passing an existing ``obj`` takes a new reference on it (the
        caller keeps its own).
        """
        if length <= 0:
            raise MappingError("mmap length must be positive")
        if offset & PAGE_MASK:
            raise MappingError("mmap offset must be page aligned")
        length = page_align_up(length)
        if addr is None:
            addr = self._find_free(length)
        elif addr & PAGE_MASK:
            raise MappingError("mmap address must be page aligned")
        if self._overlaps(addr, addr + length):
            raise MappingError(f"mapping [{addr:#x}, {addr + length:#x}) overlaps")
        npages = length >> PAGE_SHIFT
        if obj is None:
            obj = VMObject(self.mem.phys, size_pages=npages, name=name or "anon")
        else:
            obj.ref()
        entry = VMEntry(
            start=addr,
            end=addr + length,
            obj=obj,
            offset_pages=offset >> PAGE_SHIFT,
            prot=prot,
            shared=shared,
            name=name,
            aspace=self,
        )
        obj.register_mapping(entry)
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.start)
        return entry

    def _split_entry(self, entry: VMEntry, at: int) -> VMEntry:
        """Split ``entry`` at address ``at``; returns the upper half."""
        assert entry.start < at < entry.end and not at & PAGE_MASK
        upper = VMEntry(
            start=at,
            end=entry.end,
            obj=entry.obj.ref(),
            offset_pages=entry.pindex_of(at >> PAGE_SHIFT),
            prot=entry.prot,
            shared=entry.shared,
            name=entry.name,
            aspace=self,
        )
        entry.obj.register_mapping(upper)
        entry.end = at
        self.entries.append(upper)
        self.entries.sort(key=lambda e: e.start)
        return upper

    def entries_covering(
        self, start: int, end: int, split: bool = False
    ) -> list[VMEntry]:
        """Entries intersecting [start, end).

        With ``split=True`` entries straddling either boundary are
        split at it first, so every returned entry lies entirely
        inside the range — the form ``munmap``/``mprotect`` and
        ``sls_mctl`` need to retag exactly the requested pages.
        """
        hits = []
        for entry in list(self.entries):
            if entry.end <= start or entry.start >= end:
                continue
            if split and entry.start < start:
                entry = self._split_entry(entry, start)
            if split and entry.end > end:
                self._split_entry(entry, end)
            hits.append(entry)
        return hits

    def munmap(self, addr: int, length: int) -> int:
        """Unmap [addr, addr+length); returns the number of entries removed."""
        if addr & PAGE_MASK or length <= 0:
            raise MappingError("munmap range must be page aligned and positive")
        end = addr + page_align_up(length)
        removed = 0
        for entry in self.entries_covering(addr, end, split=True):
            self.pagetable.remove_range(entry.start_vpn, entry.end_vpn)
            entry.obj.unregister_mapping(entry)
            entry.obj.unref()
            self.entries.remove(entry)
            removed += 1
        return removed

    def mprotect(self, addr: int, length: int, prot: int) -> None:
        end = addr + page_align_up(length)
        covered = self.entries_covering(addr, end, split=True)
        if not covered:
            raise MappingError(f"mprotect of unmapped range {addr:#x}")
        for entry in covered:
            entry.prot = prot
            if not prot & PROT_WRITE:
                for vpn in range(entry.start_vpn, entry.end_vpn):
                    self.pagetable.write_protect(vpn)

    def find_entry(self, addr: int) -> Optional[VMEntry]:
        for entry in self.entries:
            if entry.contains(addr):
                return entry
        return None

    # -- fault path ------------------------------------------------------------

    def fault(self, addr: int, for_write: bool) -> Page:
        """Handle a page fault at ``addr``; returns the resolved page."""
        entry = self.find_entry(addr)
        if entry is None:
            raise SegmentationFault(addr)
        needed = PROT_WRITE if for_write else PROT_READ
        if not entry.prot & needed:
            raise SegmentationFault(addr, f"protection violation at {addr:#x}")
        mem = self.mem
        cpu = mem.cpu
        vpn = addr >> PAGE_SHIFT
        pindex = entry.pindex_of(vpn)
        obj = entry.obj

        pte = self.pagetable.lookup(vpn)
        if pte is not None and (not for_write or (pte.writable and not pte.page.frozen)):
            pte.accessed = True
            if for_write:
                pte.dirty = True
            return pte.page

        mem.charge(cpu.fault_trap_ns)

        # Locate (or create) the page.
        page = obj.resident_page(pindex)
        if page is None and obj.shadow is not None:
            backing, _ = obj.shadow.lookup(pindex + obj.shadow_offset)
            if backing is not None:
                if for_write:
                    mem.charge(cpu.cow_fault_ns)
                    mem.stats.cow += 1
                    page = mem.phys.copy(backing)
                    obj.insert_page(pindex, page)
                    mem.log_dirty(obj, pindex, page)
                else:
                    page = backing
        if page is None:
            if obj.pager is not None:
                content = obj.pager(pindex)
                if content is not None:
                    mem.stats.pager_in += 1
                    page = mem.phys.allocate(payload=content)
                    obj.insert_page(pindex, page)
                    obj.swap_slots.pop(pindex, None)
                    if for_write:
                        mem.log_dirty(obj, pindex, page)
                    else:
                        page.dirty_epoch = 0
            if page is None:
                mem.charge(cpu.zero_fill_ns)
                mem.stats.zero_fill += 1
                page = mem.phys.allocate()
                obj.insert_page(pindex, page)
                mem.log_dirty(obj, pindex, page)
            mem.stats.major += 1
        else:
            mem.stats.minor += 1

        # Frozen page hit by a write: Aurora (or fallback) COW.
        if for_write and page.frozen:
            if mem.frozen_write_handler is None:
                raise AssertionError(
                    "write to frozen page with no COW engine installed"
                )
            owner_obj = obj if obj.resident_page(pindex) is page else None
            if owner_obj is None:
                # Frozen backing page under a private mapping was already
                # copied above; reaching here means the frozen page lives
                # in this object's chain — resolve in the owning object.
                _, owner_obj = obj.lookup(pindex)
            page = mem.frozen_write_handler(owner_obj or obj, pindex, page)
            mem.stats.cow += 1

        # Install/refresh the PTE.
        writable = bool(entry.prot & PROT_WRITE) and (
            obj.resident_page(pindex) is page
        ) and not page.frozen
        mem.charge(cpu.pte_install_ns)
        if self.pagetable.lookup(vpn) is None:
            pte = self.pagetable.install(vpn, page, writable)
        else:
            self.pagetable.update_page(vpn, page, writable)
            pte = self.pagetable.lookup(vpn)
        pte.accessed = True
        if for_write:
            pte.dirty = True
        return pte.page

    # -- data access -------------------------------------------------------------

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr``, faulting pages in as needed."""
        pos = addr
        view = memoryview(bytes(data))
        while view.nbytes:
            within = pos & PAGE_MASK
            chunk = min(PAGE_SIZE - within, view.nbytes)
            page = self.fault(pos, for_write=True)
            page.write(within, bytes(view[:chunk]))
            view = view[chunk:]
            pos += chunk

    def read(self, addr: int, nbytes: int) -> bytes:
        """Load ``nbytes`` from ``addr``, faulting pages in as needed.

        The pages' parts are joined once; a read inside one page is
        its :meth:`Page.read` itself, uncopied (the frame's own
        immutable bytes when it covers the payload).  A zero-length
        read faults nothing.
        """
        parts = []
        pos, end = addr, addr + nbytes
        while pos < end:
            within = pos & PAGE_MASK
            chunk = min(PAGE_SIZE - within, end - pos)
            parts.append(self.fault(pos, for_write=False).read(within, chunk))
            pos += chunk
        return b"".join(parts)

    def populate(self, addr: int, nbytes: int, fill: bytes = b"",
                 fill_fn=None) -> int:
        """Eagerly make [addr, addr+nbytes) resident with ``fill`` content.

        A bulk page-allocation path used by workload setup (e.g. a
        Redis instance building its 2 GiB working set) — semantically a
        loop of write faults, charged at the same per-page cost, but
        handled a map entry at a time: each entry's non-resident pages
        are allocated, inserted and logged dirty as one run, and its
        missing PTEs installed as one range.  Pages already resident
        and PTEs already present are kept.  ``fill_fn(i) -> bytes``
        gives the ``i``-th page of the range distinct content (defeats
        dedup, as a real key-value heap would).  An unmapped page
        raises :class:`SegmentationFault` with the entries before it
        already populated; running out of frames allocates none of the
        failing entry's pages.
        """
        if addr & PAGE_MASK:
            raise MappingError("populate address must be page aligned")
        npages = page_align_up(nbytes) >> PAGE_SHIFT
        mem = self.mem
        cpu = mem.cpu
        first_vpn = vpn = addr >> PAGE_SHIFT
        end_vpn = vpn + npages
        while vpn < end_vpn:
            entry = self.find_entry(vpn << PAGE_SHIFT)
            if entry is None:
                raise SegmentationFault(vpn << PAGE_SHIFT)
            stop = min(end_vpn, entry.end_vpn)
            obj = entry.obj
            # pindex + shift is the page's vpn
            shift = entry.start_vpn - entry.offset_pages
            pindexes = range(vpn - shift, stop - shift)
            resident = obj.pages
            missing = [pindex for pindex in pindexes if pindex not in resident]
            if missing:
                if fill_fn is None:
                    payloads = [fill] * len(missing)
                else:
                    offset = shift - first_vpn
                    payloads = [fill_fn(pindex + offset) for pindex in missing]
                pages = mem.phys.allocate_many(payloads)
                obj.insert_run(missing, pages)
                mem.log_dirty_run(obj, missing, pages)
                mem.stats.major += len(missing)
                mem.stats.zero_fill += len(missing)
            self.pagetable.install_range(
                range(vpn, stop), [resident[pindex] for pindex in pindexes],
                bool(entry.prot & PROT_WRITE),
            )
            vpn = stop
        mem.charge(npages * (cpu.fault_trap_ns + cpu.zero_fill_ns + cpu.pte_install_ns))
        return npages

    # -- fork ---------------------------------------------------------------------

    def fork(self, name: str = "") -> "AddressSpace":
        """Duplicate the map with classic fork COW semantics.

        Shared entries share the VM object.  Private entries get
        *symmetric shadows*: both parent and child receive fresh shadow
        objects over the (now effectively immutable) original, so
        neither side observes the other's post-fork writes.
        """
        child = AddressSpace(self.mem, name=name or f"{self.name}-child")
        for entry in list(self.entries):
            if entry.shared:
                child_entry = child.mmap(
                    length=entry.size,
                    prot=entry.prot,
                    shared=True,
                    obj=entry.obj,
                    offset=entry.offset_pages << PAGE_SHIFT,
                    addr=entry.start,
                    name=entry.name,
                )
                # Pre-share resident PTEs: shared pages are immediately
                # visible to the child without a fault storm.
                for vpn in range(child_entry.start_vpn, child_entry.end_vpn):
                    page = entry.obj.resident_page(child_entry.pindex_of(vpn))
                    if page is not None:
                        child.pagetable.install(
                            vpn, page, bool(entry.prot & PROT_WRITE)
                        )
            else:
                original = entry.obj
                parent_shadow = original.make_shadow(self.mem.phys)
                child_shadow = original.make_shadow(self.mem.phys)
                # Parent entry now maps its shadow; PTEs become read-only
                # so the next write copies up.
                original.unregister_mapping(entry)
                entry.obj = parent_shadow
                parent_shadow.register_mapping(entry)
                # make_shadow refs the original for each shadow; drop the
                # entry's own original reference.
                original.unref()
                for vpn in range(entry.start_vpn, entry.end_vpn):
                    self.pagetable.write_protect(vpn)
                    self.mem.charge(self.mem.cpu.pte_cow_arm_ns)
                child.mmap(
                    length=entry.size,
                    prot=entry.prot,
                    shared=False,
                    obj=child_shadow,
                    offset=0,
                    addr=entry.start,
                    name=entry.name,
                )
                child_shadow.unref()  # mmap took its own reference
        return child

    # -- introspection ---------------------------------------------------------

    def vm_objects(self) -> list[VMObject]:
        """Unique VM objects mapped by this address space (chain heads)."""
        seen: dict[int, VMObject] = {}
        for entry in self.entries:
            obj: Optional[VMObject] = entry.obj
            while obj is not None and obj.oid not in seen:
                seen[obj.oid] = obj
                obj = obj.shadow
        return list(seen.values())

    def resident_pages(self) -> int:
        """Total resident pages across this space's unique VM objects."""
        return sum(o.resident_count() for o in self.vm_objects())

    def resident_bytes(self) -> int:
        return self.resident_pages() * PAGE_SIZE

    def destroy(self) -> None:
        """Tear down the map, releasing every object reference."""
        for entry in list(self.entries):
            entry.obj.unregister_mapping(entry)
            entry.obj.unref()
        self.entries.clear()
        self.pagetable.clear()

    def __repr__(self) -> str:
        return (
            f"<AddressSpace {self.name} entries={len(self.entries)}"
            f" resident={self.resident_pages()}p>"
        )
