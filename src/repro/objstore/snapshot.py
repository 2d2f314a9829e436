"""Snapshot bookkeeping.

A snapshot is a durable, named checkpoint root: it points at a
manifest record which in turn references metadata records and page
extents.  Snapshots share unchanged records/pages with their parents
(the COW layout), so an incremental checkpoint's footprint is its
delta.  Zero-copy clones (``sls restore`` into a new instance, SLSFS
clones) are new snapshots sharing every reference.

The manifest and directory *formats* live here too — one encode/parse
pair each — so the commit path, fsck's quarantine manifests and the
media walker (:mod:`repro.objstore.walk`) cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ObjectStoreError
from repro.objstore.alloc import Extent
from repro.objstore.record import decode, encode, encode_list_of

#: superblock stub key pointing at a spilled snapshot directory.  The
#: directory encodes as a *list*, the stub as a *dict*, so the two
#: superblock payload formats cannot be confused; stores whose
#: directory fits the slot stay byte-identical with the pre-spill
#: format.
DIR_SPILL_KEY = "dir-spill"


@dataclass(frozen=True)
class MetaRef:
    """Reference to a stored metadata record."""

    oid: int
    extent: Extent


@dataclass(frozen=True)
class PageRef:
    """Reference to stored (deduplicated) page content."""

    content_hash: bytes
    extent: Extent
    length: int


def encode_manifest(meta, records: list[MetaRef], pages: list[PageRef]) -> bytes:
    """The manifest record payload naming ``records`` + ``pages``."""
    return encode({
        "meta": meta,
        "records": [[r.oid, r.extent.offset, r.extent.length] for r in records],
        "pages": [
            [p.content_hash, p.extent.offset, p.extent.length, p.length]
            for p in pages
        ],
    })


def parse_manifest(payload: bytes) -> tuple[object, list[MetaRef], list[PageRef]]:
    """Inverse of :func:`encode_manifest`: ``(meta, records, pages)``.
    A payload that checksums but decodes to the wrong shape raises
    :class:`ObjectStoreError`, never a stray ``KeyError``/``TypeError``."""
    try:
        value = decode(payload)
        records = [
            MetaRef(oid=int(oid), extent=Extent(int(off), int(length)))
            for oid, off, length in value["records"]
        ]
        pages = [
            PageRef(content_hash=h, extent=Extent(int(off), int(elen)),
                    length=int(plen))
            for h, off, elen, plen in value["pages"]
        ]
        if not all(isinstance(p.content_hash, bytes) for p in pages):
            raise TypeError("content hash is not bytes")
        return value["meta"], records, pages
    except (KeyError, TypeError, ValueError) as exc:
        raise ObjectStoreError(f"malformed manifest: {exc!r}") from exc


@dataclass(frozen=True)
class Snapshot:
    """One durable checkpoint root in the store directory.  Immutable,
    so its encoded directory entry is computed once."""

    snap_id: int
    name: str
    epoch: int
    created_at_ns: int
    manifest_extent: Extent
    parent_id: int | None = None
    #: bytes newly written for this snapshot (delta footprint)
    delta_bytes: int = 0
    #: logical bytes the snapshot references (incl. shared data)
    logical_bytes: int = 0

    def directory_entry(self) -> dict:
        """Encoding stored in the superblock's snapshot directory."""
        return {
            "id": self.snap_id,
            "name": self.name,
            "epoch": self.epoch,
            "created_at": self.created_at_ns,
            "manifest_off": self.manifest_extent.offset,
            "manifest_len": self.manifest_extent.length,
            "parent": self.parent_id,
            "delta_bytes": self.delta_bytes,
            "logical_bytes": self.logical_bytes,
        }

    @cached_property
    def encoded_entry(self) -> bytes:
        return encode(self.directory_entry())

    @classmethod
    def from_directory_entry(cls, entry: dict) -> "Snapshot":
        return cls(
            snap_id=entry["id"],
            name=entry["name"],
            epoch=entry["epoch"],
            created_at_ns=entry["created_at"],
            manifest_extent=Extent(entry["manifest_off"], entry["manifest_len"]),
            parent_id=entry["parent"],
            delta_bytes=entry.get("delta_bytes", 0),
            logical_bytes=entry.get("logical_bytes", 0),
        )


@dataclass
class SnapshotDirectory:
    """The in-memory snapshot table mirrored into the superblock."""

    snapshots: dict[int, Snapshot] = field(default_factory=dict)
    next_id: int = 1

    def add(self, snapshot: Snapshot) -> None:
        self.snapshots[snapshot.snap_id] = snapshot
        self.next_id = max(self.next_id, snapshot.snap_id + 1)

    def remove(self, snap_id: int) -> Snapshot:
        return self.snapshots.pop(snap_id)

    def get(self, snap_id: int) -> Snapshot | None:
        return self.snapshots.get(snap_id)

    def by_name(self, name: str) -> Snapshot | None:
        matches = [s for s in self.snapshots.values() if s.name == name]
        if not matches:
            return None
        return max(matches, key=lambda s: s.snap_id)

    def allocate_id(self) -> int:
        snap_id = self.next_id
        self.next_id += 1
        return snap_id

    def payload(self) -> bytes:
        """``encode`` of every :meth:`Snapshot.directory_entry`, in id
        order — assembled from the entries' memoized encodings, so a
        commit costs one entry encode, not one per snapshot."""
        return encode_list_of(
            [self.snapshots[sid].encoded_entry for sid in sorted(self.snapshots)]
        )

    @classmethod
    def decode(cls, entries: list[dict]) -> "SnapshotDirectory":
        directory = cls()
        for entry in entries:
            directory.add(Snapshot.from_directory_entry(entry))
        return directory
