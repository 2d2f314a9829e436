"""Mach-derived VM objects with shadow chains.

FreeBSD's VM (inherited from Mach) represents memory as *VM objects*:
containers of pages optionally backed by a *shadow* chain for
copy-on-write, and by a *pager* that can produce page contents on
demand (file pages, swapped pages, and — in Aurora — pages lazily
faulted from a checkpoint image in the object store).

Two COW disciplines coexist here, and their difference is the crux of
the paper's §3:

- **fork-style COW** uses shadow objects: each writer gets a *private*
  copy in its own shadow, which is correct for ``fork`` but would break
  shared-memory semantics if used for checkpointing.
- **Aurora's checkpoint COW** (:mod:`repro.mem.cow`) freezes pages in
  place and, on a write fault, replaces the page *inside the same VM
  object* with a fresh frame visible to every mapping process, while
  the frozen original is handed to the checkpoint flusher.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.errors import MappingError
from repro.mem.page import Page
from repro.mem.phys import PhysicalMemory

if TYPE_CHECKING:  # pragma: no cover - import cycle shield
    from repro.mem.address_space import VMEntry


class ObjectKind(enum.Enum):
    ANONYMOUS = "anon"
    VNODE = "vnode"
    #: restored-but-not-resident image object (lazy restore source)
    CHECKPOINT = "checkpoint"


#: A pager produces page *content* for a page index, or None if it has
#: none (the fault then zero-fills).  Pagers charge their own device
#: costs before returning.
Pager = Callable[[int], Optional[bytes]]


class VMObject:
    """A container of pages, possibly shadowing another object."""

    _next_id = 1

    def __init__(
        self,
        phys: PhysicalMemory,
        size_pages: int,
        kind: ObjectKind = ObjectKind.ANONYMOUS,
        shadow: Optional["VMObject"] = None,
        shadow_offset: int = 0,
        pager: Optional[Pager] = None,
        name: str = "",
    ):
        if size_pages < 0:
            raise MappingError("negative VM object size")
        self.oid = VMObject._next_id
        VMObject._next_id += 1
        self.phys = phys
        self.size_pages = size_pages
        self.kind = kind
        self.shadow = shadow
        self.shadow_offset = shadow_offset
        self.pager = pager
        self.name = name or f"{kind.value}#{self.oid}"
        self.pages: dict[int, Page] = {}
        #: page index -> swap slot id, for pages evicted under pressure
        self.swap_slots: dict[int, int] = {}
        #: live map entries referencing this object (PTE update fan-out)
        self.mappings: list["VMEntry"] = []
        #: (seq, pindex, page) for every page dirtied since this object
        #: was last frozen, appended by MemContext.log_dirty in seq order
        self.dirty: list[tuple[int, int, Page]] = []
        self.ref_count = 1
        if shadow is not None:
            shadow.ref_count += 1

    # -- reference management ---------------------------------------------

    def ref(self) -> "VMObject":
        self.ref_count += 1
        return self

    def unref(self) -> None:
        if self.ref_count <= 0:
            raise AssertionError(f"unref of dead VM object {self.name}")
        self.ref_count -= 1
        if self.ref_count == 0:
            for page in self.pages.values():
                self.phys.release(page)
            self.pages.clear()
            self.dirty.clear()
            if self.shadow is not None:
                self.shadow.unref()
                self.shadow = None

    # -- page residency -----------------------------------------------------

    def resident_page(self, pindex: int) -> Optional[Page]:
        """The page at ``pindex`` in *this* object only (no chain walk)."""
        return self.pages.get(pindex)

    def lookup(self, pindex: int) -> tuple[Optional[Page], Optional["VMObject"]]:
        """Walk the shadow chain; return (page, owning object)."""
        obj: Optional[VMObject] = self
        index = pindex
        while obj is not None:
            page = obj.pages.get(index)
            if page is not None:
                return page, obj
            index += obj.shadow_offset
            obj = obj.shadow
        return None, None

    def insert_page(self, pindex: int, page: Page) -> None:
        """Install ``page`` at ``pindex``, releasing any page it replaces."""
        if pindex < 0 or pindex >= self.size_pages:
            raise MappingError(
                f"page index {pindex} outside object of {self.size_pages} pages"
            )
        old = self.pages.get(pindex)
        if old is not None:
            self.phys.release(old)
        self.pages[pindex] = page

    def remove_page(self, pindex: int) -> Optional[Page]:
        """Detach and return the page at ``pindex`` (no release)."""
        return self.pages.pop(pindex, None)

    def resident_count(self) -> int:
        return len(self.pages)

    def iter_resident(self) -> Iterator[tuple[int, Page]]:
        return iter(sorted(self.pages.items()))

    def make_shadow(self, phys: PhysicalMemory) -> "VMObject":
        """Create a shadow of this object (fork-style COW setup)."""
        return VMObject(
            phys=phys,
            size_pages=self.size_pages,
            kind=ObjectKind.ANONYMOUS,
            shadow=self,
            shadow_offset=0,
            name=f"shadow-of-{self.name}",
        )

    # -- bookkeeping for Aurora COW -------------------------------------------

    def register_mapping(self, entry: "VMEntry") -> None:
        self.mappings.append(entry)

    def unregister_mapping(self, entry: "VMEntry") -> None:
        try:
            self.mappings.remove(entry)
        except ValueError:
            pass

    def __repr__(self) -> str:
        return (
            f"<VMObject {self.name} size={self.size_pages}p"
            f" resident={len(self.pages)} ref={self.ref_count}>"
        )
