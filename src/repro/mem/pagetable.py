"""Per-process page tables (simulated PTEs).

The page table is the per-process *cache* of the VM object layer:
authoritative contents live in :class:`~repro.mem.vmobject.VMObject`;
a PTE makes a page addressable by one process with given permissions.
Checkpoint stop time in the paper is dominated by exactly these
structures ("most of the stop time is spent applying COW tracking
through page table manipulations"), so PTE installs, protections, and
dirty/accessed bits are modelled explicitly and costed by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.mem.page import Page


@dataclass
class Pte:
    """One page-table entry."""

    page: Page
    writable: bool
    dirty: bool = False
    accessed: bool = False


class PageTable:
    """Virtual page number → :class:`Pte` for one address space."""

    def __init__(self):
        self._entries: dict[int, Pte] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, vpn: int) -> Optional[Pte]:
        return self._entries.get(vpn)

    def install(self, vpn: int, page: Page, writable: bool) -> Pte:
        pte = Pte(page=page, writable=writable)
        self._entries[vpn] = pte
        return pte

    def install_range(self, vpns: Iterable[int], pages: Iterable[Page],
                      writable: bool) -> None:
        """:meth:`install` ``pages`` at ``vpns``, pairwise, all with the
        same permission — except where a vpn already has a PTE, which is
        kept."""
        entries = self._entries
        entries.update([(vpn, Pte(page, writable))
                        for vpn, page in zip(vpns, pages) if vpn not in entries])

    def remove(self, vpn: int) -> Optional[Pte]:
        return self._entries.pop(vpn, None)

    def remove_range(self, start_vpn: int, end_vpn: int) -> int:
        """Drop every PTE with ``start_vpn <= vpn < end_vpn``."""
        doomed = [v for v in self._entries if start_vpn <= v < end_vpn]
        for vpn in doomed:
            del self._entries[vpn]
        return len(doomed)

    def write_protect(self, vpn: int) -> bool:
        """Clear the writable bit; True if the PTE existed and changed."""
        pte = self._entries.get(vpn)
        if pte is None or not pte.writable:
            return False
        pte.writable = False
        return True

    def write_protect_run(self, vpns: Iterable[int]) -> list[bool]:
        """:meth:`write_protect` each of ``vpns``; one result per vpn."""
        protected = []
        get = self._entries.get
        for vpn in vpns:
            pte = get(vpn)
            if pte is not None and pte.writable:
                pte.writable = False
                protected.append(True)
            else:
                protected.append(False)
        return protected

    def update_page(self, vpn: int, new_page: Page, writable: bool) -> bool:
        """Point an existing PTE at a different frame (Aurora COW swap)."""
        pte = self._entries.get(vpn)
        if pte is None:
            return False
        pte.page = new_page
        pte.writable = writable
        pte.dirty = False
        return True

    def iter_entries(self) -> Iterator[tuple[int, Pte]]:
        return iter(self._entries.items())

    def resident_count(self) -> int:
        return len(self._entries)

    def clear(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        return count
