"""Data-only checkpoints — the explicit persistence primitive (§4).

"Aurora allows applications to checkpoint data without associated
execution state, providing an explicit persistence primitive that does
not suffer from the semantic complexities of file and memory syncing."

A *data snapshot* captures a memory region's content into the object
store under a name — no process metadata, no registers, no descriptor
tables.  Databases use it to "trigger data transfers to and from
storage" on their own schedule: the semantics are exactly
write-snapshot/read-snapshot, with none of the fsync/msync pitfalls
(ordering, metadata vs data, partial flushes) the paper's §2 catalogs.

Content is deduplicated like all page data, so re-snapshotting a
mostly-unchanged region costs only the delta.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NoSuchObject, SlsError
from repro.mem.address_space import AddressSpace
from repro.objstore.snapshot import Snapshot
from repro.objstore.store import ObjectStore, PageRef
from repro.units import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, page_align_up

#: snapshot-name prefix distinguishing data snapshots in the directory
DATA_PREFIX = "data:"


@dataclass
class DataSnapshot:
    """Handle to one named data-only snapshot."""

    name: str
    snapshot: Snapshot
    addr: int
    length: int
    pages: int


def datasnap(
    store: ObjectStore,
    aspace: AddressSpace,
    addr: int,
    length: int,
    name: str,
    sync: bool = False,
) -> DataSnapshot:
    """Persist [addr, addr+length) under ``name``.

    The region must be mapped; non-resident pages are read through the
    normal fault path (swap/pager) so the snapshot always reflects the
    logical contents.
    """
    if addr & PAGE_MASK:
        raise SlsError("datasnap address must be page aligned")
    if length <= 0:
        raise SlsError("datasnap length must be positive")
    npages = page_align_up(length) >> PAGE_SHIFT
    refs: list[list] = []
    page_list: list[PageRef] = []
    for i in range(npages):
        page = aspace.fault(addr + i * PAGE_SIZE, for_write=False)
        ref = store.write_page(
            page.snapshot_payload(), content_hash=page.content_hash()
        )
        refs.append([i, ref.content_hash, ref.extent.offset,
                     ref.extent.length, ref.length])
        page_list.append(ref)
    meta_ref = store.write_meta(
        oid=0,
        value={"kind": "datasnap", "addr": addr, "length": length,
               "pages": refs},
    )
    snapshot = store.commit_snapshot(
        name=DATA_PREFIX + name,
        meta={"kind": "datasnap"},
        records=[meta_ref],
        pages=page_list,
    )
    if sync:
        store.flush_barrier()
    return DataSnapshot(
        name=name, snapshot=snapshot, addr=addr, length=length, pages=npages
    )


def datarestore(
    store: ObjectStore,
    aspace: AddressSpace,
    name: str,
    addr: int | None = None,
) -> int:
    """Load the named data snapshot back into memory.

    By default content returns to the address it was captured from; a
    different (mapped) ``addr`` relocates it.  Returns bytes restored.
    """
    snapshot = store.snapshot_by_name(DATA_PREFIX + name)
    if snapshot is None:
        raise NoSuchObject(f"no data snapshot {name!r}")
    _meta, records, _pages = store.load_manifest(snapshot)
    value = store.read_meta(records[0])
    if value.get("kind") != "datasnap":
        raise SlsError(f"snapshot {name!r} is not a data snapshot")
    target = value["addr"] if addr is None else addr
    from repro.objstore.alloc import Extent

    restored = 0
    for i, content_hash, offset, elen, plen in value["pages"]:
        ref = PageRef(
            content_hash=content_hash, extent=Extent(offset, elen), length=plen
        )
        payload = store.read_page(ref)
        # Whole-page semantics: the region is restored exactly.
        aspace.write(target + i * PAGE_SIZE, payload)
        page = aspace.fault(target + i * PAGE_SIZE, for_write=True)
        page.payload = payload
        page._hash = None
        restored += PAGE_SIZE
    return min(restored, value["length"]) or restored


def list_datasnaps(store: ObjectStore) -> list[str]:
    """Names of all data snapshots on the store."""
    return sorted(
        s.name[len(DATA_PREFIX):]
        for s in store.snapshots()
        if s.name.startswith(DATA_PREFIX)
    )


def drop_datasnap(store: ObjectStore, name: str) -> None:
    snapshot = store.snapshot_by_name(DATA_PREFIX + name)
    if snapshot is None:
        raise NoSuchObject(f"no data snapshot {name!r}")
    store.delete_snapshot(snapshot.snap_id)
