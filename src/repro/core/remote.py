"""``sls send`` / ``sls recv`` and live migration (paper §3.1).

"Users can easily share or migrate applications using the send and
recv commands to serialize a checkpoint state or continually feed
incremental checkpoints to a remote host.  Flags to these commands
allow the user to pipe a single checkpoint to a file to give to
another user, live migrate the application, or provide fault
tolerance."

Three flows are implemented:

- :func:`sls_send` / :meth:`MigrationReceiver.pump` — one-shot image
  transfer (also usable as export-to-file via :func:`export_image`);
- continuous replication — a :class:`~repro.core.backends.RemoteBackend`
  attached to the group feeds every incremental checkpoint to the
  receiver, which applies the deltas into its own object store;
- :func:`live_migrate` — iterative pre-copy on top of replication: a
  few incremental rounds while the application runs, then a final
  stop-and-copy round, restore on the target, teardown at the source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.backends import RemoteBackend
from repro.core.checkpoint import CheckpointImage, MemoryCopy, StoreCopy
from repro.core.group import PersistenceGroup
from repro.core.metrics import CheckpointMetrics, RestoreMetrics
from repro.core.orchestrator import SLS
from repro.errors import MigrationError
from repro.hw.netdev import NetworkEndpoint
from repro.objstore.image import write_image
from repro.objstore.record import decode, encode, shaped
from repro.objstore.store import ObjectStore
from repro.posix.process import Process
from repro.serial.memsnap import StorePageMap


def collect_payloads(image: CheckpointImage) -> list:
    """Materialize [oid, pindex, payload] for every page of an image,
    read from its default copy (:meth:`CheckpointImage.default_backend`)."""
    copy = image.copies.get(image.default_backend())
    if copy is None:
        return []
    flat = [
        (oid, pindex, slot)
        for oid, pages in copy.pages.items()
        for pindex, slot in pages.items()
    ]
    if isinstance(copy, MemoryCopy):
        return [[oid, pindex, page.snapshot_payload()] for oid, pindex, page in flat]
    payloads = copy.store.read_pages_coalesced([ref for _, _, ref in flat])
    return [[oid, pindex, payloads[ref.content_hash]] for oid, pindex, ref in flat]


def export_image(image: CheckpointImage) -> bytes:
    """Serialize a self-contained image ("pipe a single checkpoint to a
    file to give to another user")."""
    return encode(
        {
            "kind": "image",
            "group": image.group_name,
            "name": image.name,
            "epoch": image.epoch,
            "meta": image.meta,
            "pages": collect_payloads(image),
        }
    )


def sls_send(
    image: CheckpointImage,
    endpoint: NetworkEndpoint,
    peer: str,
    *,
    verify_store: bool = True,
) -> int:
    """``sls send``: ship one self-contained image; returns bytes sent.

    When the copy sent (the one :func:`export_image` reads) lives in a
    store, that store must fsck clean before anything leaves the
    machine: shipping a checkpoint off a damaged store would replicate
    the damage to the DR site, turning the copy meant to survive a
    disaster into a second casualty (see RECOVERY.md).  A clean verdict
    is cached per superblock generation, so only the first send after a
    checkpoint pays for the full walk.  Pass ``verify_store=False`` only
    to salvage from a store already known damaged.
    """
    copy = image.copies.get(image.default_backend())
    if isinstance(copy, StoreCopy) and verify_store:
        store = copy.store
        if store._fsck_clean_generation != store.volume.generation:
            from repro.objstore.fsck import check_store

            report = check_store(store)
            if not report.clean:
                counts = ", ".join(
                    f"{kind} x{n}" for kind, n in sorted(report.counts().items())
                )
                raise MigrationError(
                    f"refusing to send from a damaged store ({counts}): run "
                    f"`sls fsck --repair` first, or pass verify_store=False "
                    f"to salvage"
                )
    payload = export_image(image)
    endpoint.send(peer, payload)
    return len(payload)


#: field -> type of an image/checkpoint message (a finish marker
#: carries only the group)
_MESSAGE_FIELDS = {"group": str, "name": str, "epoch": int, "meta": dict,
                   "pages": list}


def _checked_message(value) -> dict:
    """``value`` if it is a well-formed migration message.  It came off
    a file or the network, so everything the receiver will index is
    checked here, before anything is staged in the store."""
    kind = value.get("kind") if isinstance(value, dict) else None
    if kind not in ("image", "checkpoint", "finish"):
        raise MigrationError(f"unknown migration message kind {kind!r}")
    fields = {"group": str} if kind == "finish" else _MESSAGE_FIELDS
    if not (shaped(value, fields) and all(  # [oid, page index, payload]
        isinstance(row, list) and [type(x) for x in row] == [int, int, bytes]
        for row in (value["pages"] if kind != "finish" else ())
    )):
        raise MigrationError(f"malformed {kind!r} migration message")
    return value


@dataclass
class _GroupStream:
    """Assembly state for one transferred group: its newest metadata
    and the page map every message so far adds up to."""

    group: str
    meta: Optional[dict] = None
    name: str = ""
    epoch: int = 0
    page_refs: StorePageMap = field(default_factory=dict)
    checkpoints_applied: int = 0

    def apply(self, store: ObjectStore, value: dict) -> None:
        """Adopt one image/checkpoint message: stage its pages, overlay
        them on the map, keep its metadata."""
        self.meta, self.name, self.epoch = value["meta"], value["name"], value["epoch"]
        for oid, pindex, payload in value["pages"]:
            self.page_refs.setdefault(oid, {})[pindex] = store.write_page(payload)
        self.checkpoints_applied += 1

    def commit(self, store: ObjectStore, backend_name: str, marker: str) -> CheckpointImage:
        """Commit the assembled image to ``store``; returns it
        restorable under ``backend_name``."""
        snapshot, lineage = write_image(
            store,
            name=f"{backend_name}:{self.name}",
            meta={"group": self.group, marker: True},
            value=self.meta,
            page_map=self.page_refs,
            epoch=self.epoch,
        )
        image = CheckpointImage(
            name=self.name,
            group_name=self.group,
            epoch=self.epoch,
            incremental=False,
            meta=self.meta,
            metrics=CheckpointMetrics(group=self.group),
        )
        # the image owns its map; the stream's grows with later messages
        image.copies[backend_name] = StoreCopy(store, snapshot, {
            oid: dict(pages) for oid, pages in self.page_refs.items()
        }, lineage)
        return image


def import_image(blob: bytes, store: ObjectStore) -> CheckpointImage:
    """Load an exported image blob into a store ("give to another
    user"): the file-transfer counterpart of send/recv.

    Returns a restorable image whose pages live in ``store`` under the
    backend name ``"import"``.
    """
    value = _checked_message(decode(blob))
    if value["kind"] != "image":
        raise MigrationError("blob is not an exported checkpoint image")
    stream = _GroupStream(value["group"])
    stream.apply(store, value)
    return stream.commit(store, "import", "imported")


class MigrationReceiver:
    """``sls recv``: applies images and replication streams locally."""

    def __init__(self, sls: SLS, store: ObjectStore, endpoint: NetworkEndpoint):
        self.sls = sls
        self.store = store
        self.endpoint = endpoint
        self._streams: dict[str, _GroupStream] = {}
        self.images_received = 0

    # -- stream assembly -------------------------------------------------------

    def _apply_message(self, value) -> Optional[str]:
        kind = _checked_message(value)["kind"]
        group_name = value["group"]
        stream = self._streams.setdefault(group_name, _GroupStream(group_name))
        if kind == "finish":
            return group_name
        stream.apply(self.store, value)
        self.images_received += 1
        if kind == "image":
            return group_name
        return None

    def pump(self, *, wait: bool = True) -> list[str]:
        """Process incoming messages; returns groups ready to restore."""
        ready = []
        while True:
            message = self.endpoint.receive(wait=wait and not ready)
            if message is None:
                break
            group_name = self._apply_message(decode(message.payload))
            if group_name is not None:
                ready.append(group_name)
        return ready

    # -- restore --------------------------------------------------------------------

    def build_image(self, group_name: str) -> CheckpointImage:
        stream = self._streams.get(group_name)
        if stream is None or stream.meta is None:
            raise MigrationError(f"no received image for group {group_name!r}")
        return stream.commit(self.store, "recv", "received")

    def restore(
        self, group_name: str, *, lazy: bool = False, new_instance: bool = False
    ) -> tuple[list[Process], RestoreMetrics]:
        image = self.build_image(group_name)
        return self.sls.restore(
            image,
            backend_name="recv",
            lazy=lazy,
            new_instance=new_instance,
        )


@dataclass
class MigrationReport:
    rounds: int = 0
    pages_shipped: int = 0
    bytes_shipped: int = 0
    downtime_ns: int = 0
    total_ns: int = 0


def live_migrate(
    src_sls: SLS,
    group: PersistenceGroup,
    receiver: MigrationReceiver,
    endpoint: NetworkEndpoint,
    peer: str,
    rounds: int = 3,
    dirty_threshold_pages: int = 64,
) -> tuple[list[Process], MigrationReport]:
    """Live-migrate ``group`` to the receiver's kernel.

    Pre-copy rounds ship incremental checkpoints while the source keeps
    running; once the dirty delta is small (or ``rounds`` is exhausted)
    the source is stopped, a final delta ships, and the target restores.
    """
    kernel = src_sls.kernel
    report = MigrationReport()
    start_ns = kernel.clock.now

    remote = RemoteBackend("migrate", endpoint, peer)
    group.attach(remote)
    try:
        for round_no in range(rounds):
            image = src_sls.checkpoint(group, name=f"migrate-{round_no}")
            report.rounds += 1
            report.pages_shipped += image.metrics.pages_captured
            src_sls.barrier(group)
            receiver.pump(wait=True)
            if (
                round_no > 0
                and image.metrics.pages_captured <= dirty_threshold_pages
            ):
                break

        # Stop-and-copy: final downtime window.
        downtime_start = kernel.clock.now
        procs = group.processes()
        for proc in procs:
            proc.stop_all_threads()
        final = src_sls.checkpoint(group, name="migrate-final")
        report.rounds += 1
        report.pages_shipped += final.metrics.pages_captured
        src_sls.barrier(group)
        endpoint.send(peer, encode({"kind": "finish", "group": group.name}))
        ready = receiver.pump(wait=True)
        if group.name not in ready:
            raise MigrationError("receiver did not see the finish marker")
        restored, _metrics = receiver.restore(group.name)
        report.downtime_ns = kernel.clock.now - downtime_start

        # Tear down the source incarnation.
        for proc in sorted(group.processes(), key=lambda p: p.pid, reverse=True):
            kernel.exit(proc)
            kernel.reap(proc)
        src_sls.unpersist(group)
    finally:
        if remote in group.backends:
            group.detach(remote.name)
    report.bytes_shipped = remote.bytes_sent
    report.total_ns = kernel.clock.now - start_ns
    return restored, report
