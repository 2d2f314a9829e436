"""Persistence-group backends.

"Applications are placed into a persistence group attached to one or
more backing devices" (paper §3): NVMe flash or NVDIMM for local
persistence, a network backend for remote persistence, and a local
memory backend for ephemeral checkpoints (debugging/speculation).
Multiple backends can be attached at once — e.g. local disk *and* a
remote replica.

Each backend knows how to persist one checkpoint image and how durable
it is: disk-like backends flush asynchronously and report durability
through the event queue; the memory backend is "durable" immediately
(and lost on crash); the remote backend is durable when the image
arrives at the peer.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.checkpoint import CheckpointImage, FlushInfo, MemoryCopy, StoreCopy
from repro.errors import BackendError, HardwareError, PowerCut
from repro.fault import names as fault_names
from repro.hw.device import StorageDevice
from repro.hw.netdev import NetworkEndpoint
from repro.mem.cow import FreezeSet
from repro.units import MSEC
from repro.obs import names as obs_names
from repro.objstore.image import Lineage, write_image
from repro.objstore.record import encode
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.serial.memsnap import (
    capture_pages_to_memory,
    capture_pages_to_store,
    capture_swapped_to_store,
)


class Backend(abc.ABC):
    """One persistence target for a group."""

    kind = "abstract"

    def __init__(self, name: str):
        self.name = name
        self.kernel: Optional[Kernel] = None

    def bind(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def _count_flushed(self, nbytes: int) -> None:
        """Attribute flushed bytes to this backend in the host registry."""
        if self.kernel is not None:
            self.kernel.obs.registry.counter(
                obs_names.C_BYTES_FLUSHED, backend=self.name
            ).inc(nbytes)

    def _fire_persist(self, image: CheckpointImage) -> None:
        """Failpoint ``backend.persist``: evaluated before any capture.

        ``fail`` raises :class:`HardwareError` so the orchestrator's
        per-backend handling degrades durability; ``crash`` unwinds as
        a power cut to the harness.
        """
        if self.kernel is None or not self.kernel.faults.active:
            return
        action = self.kernel.faults.fire(
            fault_names.FP_BACKEND_PERSIST, backend=self.name, image=image.name
        )
        if action is None:
            return
        if action.kind == "crash":
            raise PowerCut(
                f"{self.name}: {action.reason or 'power cut during persist'}",
                at_ns=self.kernel.clock.now,
            )
        if action.kind == "fail":
            raise HardwareError(
                f"{self.name}: {action.reason or 'injected persist failure'}"
            )

    @abc.abstractmethod
    def persist(self, image: CheckpointImage, freeze_set: FreezeSet,
                parent: Optional[CheckpointImage]) -> None:
        """Capture the image's data on this backend (async flush)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class StoreBackend(Backend):
    """Shared logic for object-store backends (NVMe / NAND / NVDIMM).

    A persist stages its page and metadata records in the store's
    write batch; ``commit_snapshot`` flushes them — contiguous records
    coalesced into multi-page extents, one doorbell per shard — before
    the manifest and the barriered superblock.
    """

    kind = "disk"

    def __init__(self, name: str, store: ObjectStore):
        super().__init__(name)
        self.store = store

    def bind(self, kernel: Kernel) -> None:
        super().bind(kernel)
        # Attaching to a group is the natural moment to adopt the host
        # kernel's observability plane (dedup/GC/segment counters) and
        # its fault-injection plane (failpoints reach the store/device).
        if self.store.obs is None:
            self.store.attach_obs(kernel.obs)
        if self.store.faults is None:
            self.store.attach_faults(kernel.faults)

    def persist(self, image, freeze_set, parent):
        assert self.kernel is not None, "backend not bound to a kernel"
        self._fire_persist(image)
        submitted_at = self.kernel.clock.now
        device_stats = self.store.device.stats
        doorbells_before = device_stats.doorbells
        stall_before = device_stats.submit_stall_ns
        store_stats = self.store.stats
        records_before, extents_before = store_stats.batch_records, store_stats.batch_extents
        nbytes_before, shards_before = store_stats.batch_bytes, store_stats.batch_shards
        base = parent.copies.get(self.name) if parent else None
        base_map = base.pages if base else None
        page_map = capture_pages_to_store(
            freeze_set, self.store, base_map=base_map
        )
        # Swapped-out pages join the checkpoint without faulting in
        # ("when pages are swapped out due to memory pressure they are
        # incorporated into the subsequent checkpoint").
        if self.kernel._swap is not None:
            capture_swapped_to_store(
                freeze_set.objects, self.store, self.kernel.swap, page_map,
                force=freeze_set.swapped_dirty,
            )
        # The image record carries the kernel-object graph plus this
        # checkpoint's slot-map *delta* against its parent's map, the
        # manifest the delta's pages plus the lineage's records and
        # manifests (see repro.objstore.image).  An image recorded
        # non-incremental (a consolidating full checkpoint still has a
        # parent) must carry the *complete* map, diffed against nothing.
        incremental = base is not None and image.incremental
        parent_snap = base.snapshot if base else None
        snapshot, lineage = write_image(
            self.store,
            name=image.name,
            meta={
                "group": image.group_name,
                "incremental": image.incremental,
                "parent_snap": parent_snap.snap_id if parent_snap else None,
            },
            value=image.meta,
            page_map=page_map,
            oid=image.image_id,
            epoch=image.epoch,
            parent_id=parent_snap.snap_id if parent_snap else None,
            base_map=base_map if incremental else None,
            base=base.lineage if incremental else Lineage(),
        )
        image.copies[self.name] = StoreCopy(
            self.store, snapshot, page_map, lineage,
            flush=FlushInfo(
                submitted_at_ns=submitted_at,
                records=store_stats.batch_records - records_before,
                extents=store_stats.batch_extents - extents_before,
                doorbells=device_stats.doorbells - doorbells_before,
                nbytes=store_stats.batch_bytes - nbytes_before,
                submit_stall_ns=device_stats.submit_stall_ns - stall_before,
                shards=store_stats.batch_shards - shards_before,
            ),
        )
        image.metrics.bytes_flushed += snapshot.delta_bytes
        self._count_flushed(snapshot.delta_bytes)
        self._publish_queue_utilization()
        # Durable once the device has drained everything just queued.
        deadline = self.store.device.pending_deadline()
        name = self.name
        if deadline <= self.kernel.clock.now:
            image.mark_durable(name, self.kernel.clock.now)
        else:
            self.kernel.events.schedule(
                deadline, lambda: image.mark_durable(name, deadline)
            )

    def _publish_queue_utilization(self) -> None:
        """Refresh the per-queue channel-utilization gauges.

        Utilization is cumulative over the run (busy_ns over elapsed
        virtual time, as integer permille), one gauge sample per
        submission queue — `sls stats` renders them as a device
        utilization table.
        """
        if self.kernel is None:
            return
        device = self.store.device
        window_ns = self.kernel.clock.now
        registry = self.kernel.obs.registry
        for queue in range(device.num_queues):
            registry.gauge(
                obs_names.G_DEVICE_QUEUE_UTIL,
                device=device.name, queue=str(queue),
            ).set(device.queue_utilization_permille(queue, window_ns))

    def delete_image(self, image: CheckpointImage) -> None:
        copy = image.copies.pop(self.name, None)
        if copy is not None:
            self.store.delete_snapshot(copy.snapshot.snap_id)


class DiskBackend(StoreBackend):
    """NVMe-flash-backed object store (the paper's primary backend)."""

    kind = "disk"


class NvdimmBackend(StoreBackend):
    """NVDIMM-backed object store: same layout, lower latency."""

    kind = "nvdimm"


class MemoryBackend(Backend):
    """Ephemeral in-memory checkpoints (debugging, speculation).

    Zero-copy: the image consists of the frozen frames themselves,
    shared COW with the still-running application.
    """

    kind = "memory"

    def persist(self, image, freeze_set, parent):
        assert self.kernel is not None, "backend not bound to a kernel"
        self._fire_persist(image)
        base = parent.copies.get(self.name) if parent else None
        base_map = base.pages if base else None
        page_map, captured = capture_pages_to_memory(freeze_set, base_map=base_map)
        # Each captured frame carries the freeze's hold; the image owns it.
        held = [page for run in freeze_set.runs for page in run.pages]
        if parent is not None and not image.incremental:
            # Cut from a chain pruning will delete: hold what it inherits.
            inherited = [page for oid, pages in page_map.items()
                         for pindex, page in pages.items()
                         if (oid, pindex) not in captured]
            self.kernel.phys.hold_many(inherited)
            held += inherited
        image.copies[self.name] = MemoryCopy(page_map, held)
        image.mark_durable(self.name, self.kernel.clock.now)

    def delete_image(self, image: CheckpointImage) -> None:
        assert self.kernel is not None
        copy = image.copies.pop(self.name, None)
        if copy is not None:
            copy.release(self.kernel.phys)


class RemoteBackend(Backend):
    """Continuous replication of checkpoints to a remote host.

    Every image (incremental or full) is encoded and shipped over the
    network link; the image is durable here once it has *arrived* at
    the peer.  The receiving side (:mod:`repro.core.remote`) applies
    the stream into its own object store.

    Sends retry with exponential virtual-time backoff when the peer
    times out (failpoint ``backend.remote.send``); once the retry
    budget is exhausted the backend *degrades to memory* — the encoded
    image is buffered locally and re-shipped by :meth:`flush_backlog`
    when connectivity returns.  A degraded image is not remotely
    durable until the backlog drains.
    """

    kind = "remote"

    def __init__(self, name: str, endpoint: NetworkEndpoint, peer: str,
                 max_retries: int = 3, retry_backoff_ns: int = 1 * MSEC):
        super().__init__(name)
        self.endpoint = endpoint
        self.peer = peer
        self.max_retries = max_retries
        self.retry_backoff_ns = retry_backoff_ns
        self.images_sent = 0
        self.bytes_sent = 0
        self.timeouts = 0
        self.retries = 0
        #: (image, payload) pairs awaiting a reachable peer
        self._backlog: list[tuple[CheckpointImage, bytes]] = []

    @property
    def degraded(self) -> bool:
        """Whether images are buffered in memory awaiting the peer."""
        return bool(self._backlog)

    def _try_send(self, payload: bytes, image_name: str):
        """One send with retry-on-timeout; ``None`` means every attempt
        timed out and the caller should degrade to memory."""
        assert self.kernel is not None
        backoff = self.retry_backoff_ns
        for attempt in range(self.max_retries + 1):
            action = None
            if self.kernel.faults.active:
                action = self.kernel.faults.fire(
                    fault_names.FP_REMOTE_SEND,
                    backend=self.name, peer=self.peer,
                    image=image_name, attempt=attempt,
                )
            if action is not None:
                if action.kind == "crash":
                    raise PowerCut(
                        f"{self.name}: {action.reason or 'power cut during send'}",
                        at_ns=self.kernel.clock.now,
                    )
                if action.kind == "fail":
                    raise HardwareError(
                        f"{self.name}: {action.reason or 'injected send failure'}"
                    )
                if action.kind in ("timeout", "drop"):
                    self.timeouts += 1
                    if attempt == self.max_retries:
                        return None
                    self.retries += 1
                    self.kernel.clock.advance(backoff)
                    backoff *= 2
                    continue
            return self.endpoint.send(self.peer, payload)
        return None

    def _schedule_durable(self, image: CheckpointImage, arrives: int) -> None:
        name = self.name
        if arrives <= self.kernel.clock.now:
            image.mark_durable(name, self.kernel.clock.now)
        else:
            self.kernel.events.schedule(
                arrives, lambda: image.mark_durable(name, arrives)
            )

    def persist(self, image, freeze_set, parent):
        assert self.kernel is not None, "backend not bound to a kernel"
        self._fire_persist(image)
        # Ship only the delta: pages captured by this freeze, plus the
        # metadata.  The peer overlays onto the images it already has.
        pages_payload = [
            [obj.oid, pindex, page.snapshot_payload()]
            for obj, pindex, page in freeze_set.iter_pages()
        ]
        payload = encode(
            {
                "kind": "checkpoint",
                "group": image.group_name,
                "name": image.name,
                "epoch": image.epoch,
                "incremental": image.incremental,
                "meta": image.meta,
                "pages": pages_payload,
            }
        )
        image.metrics.bytes_flushed += len(payload)
        self._count_flushed(len(payload))
        message = self._try_send(payload, image.name)
        if message is None:
            # Degrade to memory: hold the encoded image locally; it is
            # not remotely durable until flush_backlog re-ships it.
            self._backlog.append((image, payload))
            return
        self.images_sent += 1
        self.bytes_sent += len(payload)
        self._schedule_durable(image, message.arrives_at)

    def flush_backlog(self) -> int:
        """Re-ship images buffered while the peer was unreachable.

        Returns the number of images drained; each becomes remotely
        durable when its payload arrives at the peer.
        """
        assert self.kernel is not None, "backend not bound to a kernel"
        remaining: list[tuple[CheckpointImage, bytes]] = []
        drained = 0
        for image, payload in self._backlog:
            message = self._try_send(payload, image.name)
            if message is None:
                remaining.append((image, payload))
                continue
            self.images_sent += 1
            self.bytes_sent += len(payload)
            self._schedule_durable(image, message.arrives_at)
            drained += 1
        self._backlog = remaining
        return drained

    def delete_image(self, image: CheckpointImage) -> None:
        """Remote retention is the peer's policy; nothing local."""
        self._backlog = [(i, p) for i, p in self._backlog if i is not image]


def make_disk_backend(kernel: Kernel, device: StorageDevice, name: str = "disk0") -> DiskBackend:
    """Convenience: an object store + disk backend on ``device``."""
    store = ObjectStore(device, mem=kernel.mem)
    backend = DiskBackend(name, store)
    backend.bind(kernel)
    return backend
