"""Swap integration.

Aurora integrates swap with the SLS (paper §3): restores leave memory
"effectively swapped out" and fault it in lazily, and "when pages are
swapped out due to memory pressure they are incorporated into the
subsequent checkpoint" — the checkpoint reads the swapped content
instead of requiring it resident.

:class:`SwapSpace` owns slot allocation on a backing device and gives
each VM object a pager closure for faulting content back in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import MappingError
from repro.hw.device import StorageDevice
from repro.mem.address_space import MemContext
from repro.mem.clockalgo import ClockAlgorithm
from repro.mem.vmobject import VMObject
from repro.units import PAGE_SIZE


@dataclass
class SwapStats:
    swapped_out: int = 0
    swapped_in: int = 0


class SwapSpace:
    """Slot-granular swap on a storage device."""

    def __init__(self, mem: MemContext, device: StorageDevice):
        self.mem = mem
        self.device = device
        self.stats = SwapStats()
        self._next_slot = itertools.count()
        self._free_slots: list[int] = []
        #: slot -> stored payload length (content read needs the extent)
        self._slot_len: dict[int, int] = {}
        #: objects we have installed a pager on
        self._objects: dict[int, VMObject] = {}

    def _alloc_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        return next(self._next_slot)

    def attach(self, obj: VMObject) -> None:
        """Install this swap space as the object's pager of last resort."""
        if obj.pager is not None and obj.oid not in self._objects:
            raise MappingError(f"object {obj.name} already has a pager")
        self._objects[obj.oid] = obj
        obj.pager = self._make_pager(obj)

    def _make_pager(self, obj: VMObject):
        def pager(pindex: int) -> bytes | None:
            slot = obj.swap_slots.get(pindex)
            if slot is None:
                return None
            payload = self.page_in(slot)
            del obj.swap_slots[pindex]
            self._free_slots.append(slot)
            return payload

        return pager

    # -- data plane ---------------------------------------------------------

    def page_out(self, obj: VMObject, pindex: int) -> int:
        """Evict one resident page of ``obj`` to swap; returns the slot."""
        page = obj.resident_page(pindex)
        if page is None:
            raise MappingError(f"page {pindex} of {obj.name} not resident")
        if obj.oid not in self._objects:
            self.attach(obj)
        slot = self._alloc_slot()
        payload = page.snapshot_payload()
        self.device.write(slot * PAGE_SIZE, payload or b"\x00")
        self._slot_len[slot] = len(payload)
        obj.swap_slots[pindex] = slot
        # Unmap from every process page table before dropping the frame.
        for entry in obj.mappings:
            vpn = entry.start_vpn + (pindex - entry.offset_pages)
            if entry.start_vpn <= vpn < entry.end_vpn:
                entry.aspace.pagetable.remove(vpn)
        removed = obj.remove_page(pindex)
        assert removed is page
        self.mem.phys.release(page)
        self.stats.swapped_out += 1
        return slot

    def page_in(self, slot: int) -> bytes:
        """Read a slot's content back (device cost charged)."""
        length = self._slot_len.pop(slot, PAGE_SIZE)
        data = self.device.read(slot * PAGE_SIZE, max(length, 1))
        self.stats.swapped_in += 1
        return data[:length]

    def read_slot(self, obj: VMObject, pindex: int) -> bytes:
        """Read swapped content *without* faulting it back in.

        Checkpoints use this to incorporate swapped-out pages without
        disturbing residency.
        """
        slot = obj.swap_slots.get(pindex)
        if slot is None:
            raise MappingError(f"page {pindex} of {obj.name} not in swap")
        length = self._slot_len.get(slot, PAGE_SIZE)
        data = self.device.read(slot * PAGE_SIZE, max(length, 1))
        return data[:length]


class PageoutDaemon:
    """Keeps physical memory below a high watermark using clock.

    The daemon is driven explicitly (``balance()``) rather than by a
    thread: the simulation calls it after allocation bursts, mirroring
    the kernel waking ``vm_pageout`` on low memory.
    """

    def __init__(
        self,
        mem: MemContext,
        swap: SwapSpace,
        high_watermark: float = 0.90,
        low_watermark: float = 0.80,
    ):
        if not 0 < low_watermark <= high_watermark <= 1:
            raise ValueError("watermarks must satisfy 0 < low <= high <= 1")
        self.mem = mem
        self.swap = swap
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.clock_algo = ClockAlgorithm()
        self._objects: dict[int, VMObject] = {}

    def track(self, obj: VMObject) -> None:
        """Consider ``obj``'s resident pages for eviction."""
        self._objects[obj.oid] = obj
        for pindex, _page in obj.iter_resident():
            self.clock_algo.insert((obj.oid, pindex))

    def balance(self) -> int:
        """Evict until below the low watermark; returns pages evicted."""
        evicted = 0
        while self.mem.phys.pressure() > self.low_watermark:
            victim = self.clock_algo.evict()
            if victim is None:
                break
            oid, pindex = victim
            obj = self._objects.get(oid)
            if obj is None or obj.resident_page(pindex) is None:
                continue
            page = obj.resident_page(pindex)
            if page is not None and page.frozen:
                # Frozen pages belong to an in-flight checkpoint; skip.
                continue
            self.swap.page_out(obj, pindex)
            evicted += 1
        return evicted

    def needs_balancing(self) -> bool:
        return self.mem.phys.pressure() > self.high_watermark
