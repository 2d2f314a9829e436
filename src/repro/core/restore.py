"""The restore phases (Table 4).

:meth:`repro.core.orchestrator.SLS.restore` checks its keywords, picks
one of the image's copies and, by its kind, calls
:func:`restore_from_memory` or :func:`restore_from_store`.  Restores
rebuild an application from a checkpoint image:

1. **Object store read** (disk restores): the manifest and the metadata
   record are read and verified — the image already holds the decoded
   value, so the record is not decoded again — and, for eager restores,
   the page data are read in with large coalesced reads.
2. **Metadata state**: every kernel object is recreated and re-linked.
3. **Memory state**: address spaces are rebuilt and page content is
   attached: shared COW with an in-memory image (no copies), installed
   from the just-read payloads, or — for *lazy* restores — left to a
   pager with only the hottest pages prefetched, so the application
   faults its working set in as it runs.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.checkpoint import CheckpointImage, MemoryCopy, StoreCopy
from repro.core.metrics import CheckpointMetrics, RestoreMetrics
from repro.errors import ImageFormatError, RestoreError
from repro.mem.vmobject import VMObject
from repro.obs import names as obs_names
from repro.objstore.image import read_image, verify_image_record
from repro.objstore.pagecache import FaultOrderLog
from repro.objstore.record import shaped
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.process import Process
from repro.serial.memsnap import (
    install_memory_pages,
    install_store_pages,
    make_store_pager,
)
from repro.serial.procsnap import restore_group


def _group_meta(name: str, meta) -> dict:
    """``meta`` if it is a serialized process group: an image whose
    value half is anything else (an SLSFS or data snapshot, damage that
    checksums) raises :class:`RestoreError`, not a stray exception."""
    if not (shaped(meta, {"procs": list}) and meta["procs"]
            and isinstance(meta["procs"][0], dict)):
        raise RestoreError(f"snapshot {name!r} metadata record has the wrong shape")
    return meta


def load_image_from_store(store: ObjectStore, snapshot,
                          backend_name: str = "disk0") -> CheckpointImage:
    """Rebuild a restorable :class:`CheckpointImage` from a snapshot.

    The post-reboot path: nothing but the device contents exists, and
    the snapshot's manifest is self-contained — :func:`~repro.objstore.
    image.read_image` turns it into the group metadata and the complete
    (object, page index) → page-ref map, whichever producer wrote it.
    """
    try:
        meta, page_refs = read_image(store, snapshot)
    except ImageFormatError as exc:
        raise RestoreError(str(exc)) from exc
    meta = _group_meta(snapshot.name, meta)
    image = CheckpointImage(
        name=snapshot.name,
        group_name=str(meta["procs"][0].get("name", snapshot.name)),
        epoch=snapshot.epoch,
        incremental=False,
        meta=meta,
        metrics=CheckpointMetrics(),
    )
    image.copies[backend_name] = StoreCopy(store, snapshot, page_refs)
    return image


# -- memory-image restore ---------------------------------------------------------


def restore_from_memory(
    image: CheckpointImage,
    copy: MemoryCopy,
    kernel: Kernel,
    *,
    lazy: bool,
    new_instance: bool,
    name_suffix: str,
) -> tuple[list[Process], RestoreMetrics]:
    """Restore ``image`` from its in-memory ``copy``, shared COW;
    there is nothing to read, so ``lazy`` only labels the span."""
    mem = kernel.mem
    cpu = mem.cpu
    tracer = kernel.obs.tracer

    with tracer.span(
        obs_names.SPAN_RESTORE,
        group=image.group_name, backend="memory", lazy=lazy,
    ) as root:
        with tracer.span(obs_names.SPAN_RESTORE_METADATA) as meta_span:
            procs, ctx = restore_group(
                image.meta,
                kernel,
                preserve_pids=not new_instance,
                name_suffix=name_suffix,
            )
            mem.charge(cpu.restore_fixed_ns)
            mem.charge(ctx.objects_restored * cpu.object_restore_ns)
            meta_span.set(objects=ctx.objects_restored)

        with tracer.span(obs_names.SPAN_RESTORE_MEMORY) as mem_span:
            installed = 0
            for oid, pages in copy.pages.items():
                obj = ctx.vm_objects.get(oid)
                if obj is None:
                    continue
                installed += install_memory_pages(obj, pages, kernel.phys)
            mem.charge(ctx.aspaces_created * cpu.aspace_create_ns)
            mem.charge(ctx.entries_restored * cpu.map_entry_restore_ns)
            mem.charge(installed * cpu.pte_share_ns)
            mem_span.set(pages_installed=installed, pages_lazy=0)
        _drop_creation_refs(ctx.vm_objects.values())

    metrics = RestoreMetrics.from_span(root)
    _count_restore(kernel, metrics)
    _resume(procs)
    return procs, metrics


# -- store (disk/NVDIMM) restore --------------------------------------------------


def restore_from_store(
    image: CheckpointImage,
    copy: StoreCopy,
    backend_name: str,
    kernel: Kernel,
    *,
    lazy: bool,
    new_instance: bool,
    name_suffix: str,
    prefetch: str,
    record_faults: bool,
    fault_log: Optional[FaultOrderLog],
) -> tuple[list[Process], RestoreMetrics]:
    """Restore ``image`` from its ``copy`` on store backend
    ``backend_name`` (all three phases).  ``prefetch`` is a policy
    name, already resolved from ``None`` to ``"hot"``."""
    store, snapshot, page_refs = copy.store, copy.snapshot, copy.pages
    mem = kernel.mem
    cpu = mem.cpu
    tracer = kernel.obs.tracer
    discount = cpu.implicit_restore_discount

    with tracer.span(
        obs_names.SPAN_RESTORE,
        group=image.group_name, backend=backend_name, lazy=lazy,
    ) as root:
        # --- phase 1: object store read ------------------------------------
        with tracer.span(obs_names.SPAN_RESTORE_READ) as read_span:
            # The image already holds the value its snapshot stored
            # (every producer writes ``image.meta`` itself): restore
            # that, and only read and verify the snapshot's record,
            # so decay on the medium still fails the restore.
            if store.directory.get(snapshot.snap_id) != snapshot:
                raise RestoreError(
                    f"snapshot {snapshot.name!r} is no longer in its store"
                )
            try:
                verify_image_record(store, snapshot)
            except ImageFormatError as exc:
                raise RestoreError(str(exc)) from exc
            meta = _group_meta(image.name, image.meta)
            payloads: dict[bytes, bytes] = {}
            prefetched = 0
            if not lazy:
                all_refs = [
                    ref
                    for pages in page_refs.values()
                    for ref in pages.values()
                ]
                payloads = store.read_pages_coalesced(all_refs)
            elif prefetch == "hot":
                hot = meta.get("hot") or {}
                hot_refs = []
                seen_hashes: set[bytes] = set()
                for oid, pindexes in hot.items():
                    obj_refs = page_refs.get(oid, {})
                    for p in pindexes:
                        ref = obj_refs.get(p)
                        if ref is None or ref.content_hash in seen_hashes:
                            continue  # dedup'd page already fetched
                        seen_hashes.add(ref.content_hash)
                        hot_refs.append(ref)
                payloads = store.read_pages_coalesced(hot_refs)
            elif prefetch == "recorded":
                # Replay a previously recorded fault order as a
                # prefetch stream: warm the page cache in fault
                # order (coalesced batches, fanned across the
                # device's queues) but install nothing eagerly —
                # the demand faults behind the stream hit cache.
                replay_refs = []
                for rec in fault_log.entries:
                    ref = page_refs.get(rec.oid, {}).get(rec.pindex)
                    if ref is not None:
                        replay_refs.append(ref)
                prefetched = store.prefetch_pages(replay_refs)
                if prefetched and kernel.obs is not None:
                    kernel.obs.registry.counter(
                        obs_names.C_RESTORE_PAGES_PREFETCHED,
                        group=image.group_name, backend=backend_name,
                    ).inc(prefetched)
            read_span.set(
                pages_read=len(payloads), pages_prefetched=prefetched
            )

        # --- phase 2: metadata state ------------------------------------------
        with tracer.span(obs_names.SPAN_RESTORE_METADATA) as meta_span:
            procs, ctx = restore_group(
                meta,
                kernel,
                preserve_pids=not new_instance,
                name_suffix=name_suffix,
            )
            mem.charge(cpu.restore_fixed_ns * discount)
            mem.charge(ctx.objects_restored * cpu.object_restore_ns)
            meta_span.set(objects=ctx.objects_restored)

        # --- phase 3: memory state ----------------------------------------------
        with tracer.span(obs_names.SPAN_RESTORE_MEMORY) as mem_span:
            installed = 0
            lazy_pages = 0
            for oid, refs in page_refs.items():
                obj = ctx.vm_objects.get(oid)
                if obj is None:
                    continue
                if lazy:
                    obj.pager = make_store_pager(
                        store, refs, mem, oid=oid,
                        recorder=fault_log if record_faults else None,
                    )
                    # Prefetch whatever the hot read brought in.
                    ready = {
                        p: payloads[r.content_hash]
                        for p, r in refs.items()
                        if r.content_hash in payloads
                    }
                    installed += install_store_pages(obj, ready, kernel.phys, mem)
                    lazy_pages += len(refs) - len(ready)
                else:
                    ready = {
                        p: payloads[r.content_hash] for p, r in refs.items()
                    }
                    installed += install_store_pages(obj, ready, kernel.phys, mem)
            mem.charge(ctx.aspaces_created * cpu.aspace_create_ns * discount)
            mem.charge(ctx.entries_restored * cpu.map_entry_restore_ns)
            mem.charge(installed * cpu.pte_share_ns)
            mem_span.set(pages_installed=installed, pages_lazy=lazy_pages)
        _drop_creation_refs(ctx.vm_objects.values())

    metrics = RestoreMetrics.from_span(root)
    _count_restore(kernel, metrics)
    _resume(procs)
    return procs, metrics


def _drop_creation_refs(objects: Iterable[VMObject]) -> None:
    """Release the reference each restored VM object was created with.

    The map entries, shm segments and shadows that use an object took
    references of their own, so once the pages are attached the
    objects belong to them, and exiting the restored processes frees
    their frames — as ``fork`` drops its shadows' creation references.
    """
    for obj in objects:
        obj.unref()


def _count_restore(kernel: Kernel, metrics: RestoreMetrics) -> None:
    reg = kernel.obs.registry
    labels = {"group": metrics.group, "backend": metrics.backend}
    reg.counter(obs_names.C_RESTORES, **labels).inc()
    reg.counter(obs_names.C_RESTORE_PAGES_INSTALLED, **labels).inc(
        metrics.pages_installed
    )
    reg.counter(obs_names.C_RESTORE_PAGES_LAZY, **labels).inc(
        metrics.pages_lazy
    )
    reg.histogram(obs_names.H_RESTORE_TOTAL, **labels).observe(
        metrics.total_ns
    )


def _resume(procs: list[Process]) -> None:
    for proc in procs:
        proc.resume_all_threads()
