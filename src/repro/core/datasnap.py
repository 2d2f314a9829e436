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
from repro.objstore.image import read_image, write_image
from repro.objstore.record import shaped
from repro.objstore.snapshot import Snapshot
from repro.objstore.store import ObjectStore
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
    pages = {}
    for i in range(npages):
        page = aspace.fault(addr + i * PAGE_SIZE, for_write=False)
        pages[i] = store.write_page(
            page.snapshot_payload(), content_hash=page.content_hash()
        )
    snapshot, _lineage = write_image(
        store,
        name=DATA_PREFIX + name,
        meta={"kind": "datasnap"},
        value={"kind": "datasnap", "addr": addr, "length": length},
        page_map={0: pages},
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
    value, page_map = read_image(store, snapshot)
    if not (shaped(value, {"kind": str, "addr": int, "length": int})
            and value["kind"] == "datasnap"):
        raise SlsError(f"snapshot {name!r} is not a data snapshot")
    target = value["addr"] if addr is None else addr
    restored = 0
    for i, ref in page_map.get(0, {}).items():
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
