"""Memory serialization: VM objects, map entries, and page capture.

The metadata side (structure: objects, shadow links, map entries) is
cheap and goes into the checkpoint manifest; the data side (page
content) is captured from a :class:`~repro.mem.cow.FreezeSet` either
into the object store (disk/NVDIMM backends, deduplicated) or kept as
frozen frames (memory backend — zero copies, shared with the app).

On restore "Aurora faithfully reproduces the entire memory hierarchy
to preserve page deduplication": shadow chains and sharing are rebuilt
exactly, not flattened.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RestoreError
from repro.mem.address_space import AddressSpace, VMEntry
from repro.mem.cow import FreezeSet
from repro.mem.page import Page
from repro.mem.vmobject import ObjectKind, VMObject
from repro.obs import names as obs_names
from repro.objstore.store import ObjectStore, PageRef
from repro.serial.registry import RestoreContext, SerialContext

#: oid -> {pindex -> PageRef} (disk image) or {pindex -> Page} (memory image)
PageMap = dict[int, dict[int, object]]
#: a store copy's map: every slot a PageRef (``image.copies[backend].pages``
#: of a :class:`~repro.core.checkpoint.StoreCopy`)
StorePageMap = dict[int, dict[int, PageRef]]


def serialize_vm_objects(objects: list[VMObject], ctx: SerialContext) -> list[dict]:
    """Record VM object structure (chains serialized bottom-up)."""
    out: list[dict] = []
    emitted: set[int] = set()

    def emit(obj: VMObject) -> None:
        if obj.oid in emitted:
            return
        if obj.shadow is not None:
            emit(obj.shadow)
        emitted.add(obj.oid)
        ctx.objects_serialized += 1
        out.append(
            {
                "oid": obj.oid,
                "size_pages": obj.size_pages,
                "kind": obj.kind.value,
                "shadow_oid": obj.shadow.oid if obj.shadow else None,
                "shadow_offset": obj.shadow_offset,
                "name": obj.name,
            }
        )

    for obj in objects:
        emit(obj)
    return out


def restore_vm_objects(
    entries: list[dict], ctx: RestoreContext
) -> dict[int, VMObject]:
    """Recreate VM objects preserving the shadow hierarchy."""
    for data in entries:
        shadow = None
        if data["shadow_oid"] is not None:
            shadow = ctx.vm_objects.get(data["shadow_oid"])
            if shadow is None:
                raise RestoreError(
                    f"object {data['oid']} restored before its shadow"
                )
        obj = VMObject(
            phys=ctx.kernel.phys,
            size_pages=data["size_pages"],
            kind=ObjectKind(data["kind"]),
            shadow=shadow,
            shadow_offset=data["shadow_offset"],
            name=data["name"],
        )
        ctx.vm_objects[data["oid"]] = obj
        ctx.objects_restored += 1
    return ctx.vm_objects


def serialize_entries(aspace: AddressSpace, ctx: SerialContext) -> list[dict]:
    out = []
    for entry in aspace.entries:
        ctx.objects_serialized += 1
        out.append(
            {
                "start": entry.start,
                "end": entry.end,
                "oid": entry.obj.oid,
                "offset_pages": entry.offset_pages,
                "prot": entry.prot,
                "shared": entry.shared,
                "name": entry.name,
                "sls_exclude": entry.sls_exclude,
                "restore_hint": entry.restore_hint,
            }
        )
    return out


def restore_entries(
    aspace: AddressSpace, entries: list[dict], ctx: RestoreContext
) -> list[VMEntry]:
    from repro.units import PAGE_SHIFT

    restored = []
    for data in entries:
        obj = ctx.vm_objects.get(data["oid"])
        if obj is None:
            raise RestoreError(f"map entry references missing VM object {data['oid']}")
        entry = aspace.mmap(
            length=data["end"] - data["start"],
            prot=data["prot"],
            shared=data["shared"],
            obj=obj,
            offset=data["offset_pages"] << PAGE_SHIFT,
            addr=data["start"],
            name=data["name"],
        )
        entry.sls_exclude = data.get("sls_exclude", False)
        entry.restore_hint = data.get("restore_hint", "")
        ctx.entries_restored += 1
        restored.append(entry)
    return restored


# --- page capture (checkpoint data plane) ------------------------------------------


def capture_pages_to_store(
    freeze_set: FreezeSet,
    store: ObjectStore,
    base_map: Optional[StorePageMap] = None,
) -> StorePageMap:
    """Write a freeze set's pages to the object store (deduplicated).

    ``base_map`` is the parent checkpoint's page map; incremental
    checkpoints overlay their dirty pages onto it, so the returned map
    is always complete.
    """
    page_map: StorePageMap = {}
    if base_map:
        for oid, pages in base_map.items():
            page_map[oid] = dict(pages)
    for frozen in freeze_set.pages:
        # Delta hints: the COW-resolve path stamped each replacement
        # frame with its ancestor's content hash and tracked the byte
        # ranges written since, so a lightly-dirtied page can persist
        # as a sub-page delta record instead of a full page.
        ref = store.write_page(
            frozen.page.snapshot_payload(),
            epoch=freeze_set.epoch,
            content_hash=frozen.page.content_hash(),
            delta_base=frozen.page.base_hash,
            dirty_extents=frozen.page.dirty_extents,
        )
        page_map.setdefault(frozen.obj.oid, {})[frozen.pindex] = ref
    if store.obs is not None:
        store.obs.tracer.event(
            obs_names.EV_CAPTURE_STORE,
            pages=len(freeze_set.pages),
            epoch=freeze_set.epoch,
            store=store.device.name,
        )
    return page_map


def capture_swapped_to_store(
    objects: list[VMObject],
    store: ObjectStore,
    swap,
    page_map: StorePageMap,
    force: Optional[set] = None,
) -> list[PageRef]:
    """Incorporate swapped-out pages into the checkpoint (paper §3:
    pages evicted under memory pressure join the next checkpoint).

    A slot already covered by an inherited ref is skipped *unless* it
    is in ``force`` — the freeze pass flags slots that were dirtied
    this interval and then evicted, whose inherited copy is stale.
    """
    force = force or set()
    new_refs = []
    for obj in objects:
        for pindex in sorted(obj.swap_slots):
            existing = page_map.get(obj.oid, {}).get(pindex)
            if existing is not None and (obj.oid, pindex) not in force:
                continue  # unchanged since it was last captured
            payload = swap.read_slot(obj, pindex)
            ref = store.write_page(payload)
            page_map.setdefault(obj.oid, {})[pindex] = ref
            new_refs.append(ref)
    if new_refs and store.obs is not None:
        store.obs.registry.counter(
            obs_names.C_SWAP_CAPTURED, store=store.device.name
        ).inc(len(new_refs))
        store.obs.tracer.event(
            obs_names.EV_CAPTURE_SWAP,
            pages=len(new_refs),
            store=store.device.name,
        )
    return new_refs


def capture_pages_to_memory(
    freeze_set: FreezeSet, base_map: Optional[PageMap] = None
) -> tuple[PageMap, set]:
    """Memory-backend capture: the image *is* the frozen frames.

    No bytes are copied; the freeze pass already holds a reference per
    captured frame.  Returns the complete map and the captured slots.
    """
    page_map: PageMap = {}
    if base_map:
        for oid, pages in base_map.items():
            page_map[oid] = dict(pages)
    captured = set()
    for frozen in freeze_set.pages:
        page_map.setdefault(frozen.obj.oid, {})[frozen.pindex] = frozen.page
        captured.add((frozen.obj.oid, frozen.pindex))
    return page_map, captured


# --- page installation (restore data plane) -----------------------------------------


def install_memory_pages(
    obj: VMObject, pages: dict[int, Page], phys
) -> int:
    """Share image frames into a restored object (no copy; COW).

    Frames stay frozen: the restored application's first write to any
    of them COW-faults, exactly as the paper describes sharing between
    the image and the running application.
    """
    installed = 0
    for pindex, page in pages.items():
        phys.hold(page)
        page.frozen = True
        old = obj.pages.get(pindex)
        if old is not None:
            phys.release(old)
        obj.pages[pindex] = page
        installed += 1
    return installed


def install_store_pages(
    obj: VMObject, payloads: dict[int, bytes], phys, mem
) -> int:
    """Eagerly materialize page content read from the store."""
    installed = 0
    for pindex, payload in payloads.items():
        page = phys.allocate(payload=payload)
        page.frozen = True  # shared with the image; first write COWs
        obj.insert_page(pindex, page)
        installed += 1
    return installed


def make_store_pager(
    store: ObjectStore, refs: dict[int, PageRef], mem,
    *, oid: Optional[int] = None, recorder=None,
):
    """Lazy-restore pager: fault page content in from the object store.

    Each fault's service latency (pager entry to content in hand) is
    observed into the per-store fault histogram; with ``recorder`` (a
    :class:`~repro.objstore.pagecache.FaultOrderLog`) the fault order
    is also recorded for a later replay-prefetch restore.
    """
    hist = None
    if store.obs is not None:
        hist = store.obs.registry.histogram(
            obs_names.H_RESTORE_FAULT, store=store.device.name
        )

    def pager(pindex: int) -> Optional[bytes]:
        ref = refs.get(pindex)
        if ref is None:
            return None
        start = store.device.clock.now
        payload = store.read_page(ref)
        if recorder is not None:
            recorder.record(oid or 0, pindex, ref.content_hash)
        if hist is not None:
            hist.observe(store.device.clock.now - start)
        return payload

    return pager
