"""The Mach-derived virtual memory subsystem (FreeBSD-style), plus
Aurora's checkpoint COW engine, clock replacement, and swap."""

from repro.mem.address_space import (
    MMAP_BASE,
    PROT_NONE,
    PROT_READ,
    PROT_RW,
    PROT_WRITE,
    AddressSpace,
    FaultStats,
    MemContext,
    VMEntry,
)
from repro.mem.clockalgo import ClockAlgorithm
from repro.mem.cow import AuroraCow, CowStats, FreezeSet, PageRun
from repro.mem.page import ZERO_PAGE_HASH, Page
from repro.mem.pagetable import PageTable, Pte
from repro.mem.phys import PhysicalMemory
from repro.mem.swap import PageoutDaemon, SwapSpace, SwapStats
from repro.mem.vmobject import ObjectKind, Pager, VMObject

__all__ = [
    "MMAP_BASE",
    "PROT_NONE",
    "PROT_READ",
    "PROT_RW",
    "PROT_WRITE",
    "AddressSpace",
    "FaultStats",
    "MemContext",
    "VMEntry",
    "ClockAlgorithm",
    "AuroraCow",
    "CowStats",
    "FreezeSet",
    "PageRun",
    "ZERO_PAGE_HASH",
    "Page",
    "PageTable",
    "Pte",
    "PhysicalMemory",
    "PageoutDaemon",
    "SwapSpace",
    "SwapStats",
    "ObjectKind",
    "Pager",
    "VMObject",
]
