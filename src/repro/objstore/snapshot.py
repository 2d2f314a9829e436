"""Snapshot bookkeeping.

A snapshot is a durable, named checkpoint root: it points at a
manifest record which in turn references metadata records and page
extents.  Snapshots share unchanged records/pages with their parents
(the COW layout), so an incremental checkpoint's footprint is its
delta — its manifest included: it lists only the page rows the
snapshot added plus its ancestors' manifests, whose tables it reads
through (:func:`replay`).  Zero-copy clones (``sls restore`` into a new
instance, SLSFS clones) are new snapshots sharing every reference.

The manifest and directory *formats* live here too — one encode/parse
pair each — so the commit path, fsck's quarantine manifests and the
media walker (:mod:`repro.objstore.walk`) cannot drift apart.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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
    #: the manifest row's codec facts — the record's encoding flags and
    #: delta chain depth — so a rebuild indexes the page without reading
    #: it.  Not part of a ref's identity: a commit fills them from the
    #: dedup index, a parsed row carries them, other refs leave them 0.
    flags: int = field(default=0, compare=False)
    depth: int = field(default=0, compare=False)


#: manifest row layouts (format version :data:`MANIFEST_VERSION`).  A
#: record row is oid, extent offset, extent length; a page row is the
#: SHA-1 content hash, extent offset, extent length, page length — a
#: page record's extent (header + at most one page) and a page's length
#: both fit 16 bits — then the record's encoding flags and delta chain
#: depth, one byte each; a lineage row is an ancestor manifest's extent
#: offset and length.
MANIFEST_VERSION = 4
_RECORD_ROW = struct.Struct("<QQI")
_PAGE_ROW = struct.Struct("<20sQHHBB")
#: a page row without its codec facts (:meth:`PageTable.rows`)
_PAGE_ROW_REF = struct.Struct("<20sQHH2x")
_LINEAGE_ROW = struct.Struct("<QI")
#: one row of an image record's slot map (:mod:`repro.objstore.image`):
#: slot (page index), SHA-1 content hash
PAGEMAP_ROW = struct.Struct("<I20s")


def _page_ref(row: tuple[bytes, int, int, int, int, int]) -> PageRef:
    content_hash, offset, extent_length, length, flags, depth = row
    return PageRef(content_hash, Extent(offset, extent_length), length, flags, depth)


class PageTable(Sequence):
    """A manifest's page table: a read-only ``Sequence[PageRef]`` over
    the packed rows, materializing a :class:`PageRef` only where one is
    asked for.  :func:`parse_manifest` builds it after checking the
    buffer holds whole rows, so no access can fail."""

    __slots__ = ("_rows",)

    def __init__(self, rows: bytes):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows) // _PAGE_ROW.size

    def __getitem__(self, index):
        picked = range(len(self))[index]  # index and slice arithmetic
        if isinstance(index, slice):
            return [self[i] for i in picked]
        return _page_ref(_PAGE_ROW.unpack_from(self._rows, picked * _PAGE_ROW.size))

    def __iter__(self) -> Iterator[PageRef]:
        return map(_page_ref, _PAGE_ROW.iter_unpack(self._rows))

    def rows(self) -> Iterator[tuple[bytes, int, int, int]]:
        """Raw ``(content_hash, offset, extent_length, page_length)``
        rows, for a consumer that wants no :class:`PageRef`."""
        return _PAGE_ROW_REF.iter_unpack(self._rows)

    def rows_with_facts(self) -> Iterator[tuple[bytes, int, int, int, int, int]]:
        """Raw rows with the codec facts: ``(content_hash, offset,
        extent_length, page_length, flags, depth)``."""
        return _PAGE_ROW.iter_unpack(self._rows)


class Manifest(NamedTuple):
    """A parsed manifest.  ``pages`` are the rows its snapshot *added*;
    an incremental resolves the rest of its image through ``lineage``,
    its ancestors' manifests newest first — parallel to ``records``,
    whose first entry is the snapshot's own and the rest its
    ancestors'.  A full table has an empty lineage."""

    meta: object
    records: list[MetaRef]
    pages: PageTable
    lineage: list[Extent]


def encode_manifest(meta, records: list[MetaRef], pages: Sequence[PageRef],
                    lineage: Sequence[Extent] = ()) -> bytes:
    """The manifest record payload naming ``records`` + ``pages`` +
    ``lineage``.  A ref no row can hold (a hash that is not 20 bytes, a
    field past its width) raises :class:`ObjectStoreError`."""
    try:
        record_rows = b"".join(
            [_RECORD_ROW.pack(r.oid, r.extent.offset, r.extent.length) for r in records]
        )
        page_rows = b"".join([
            _PAGE_ROW.pack(p.content_hash, p.extent.offset, p.extent.length,
                           p.length, p.flags, p.depth)
            for p in pages
        ])
        lineage_rows = b"".join(
            [_LINEAGE_ROW.pack(e.offset, e.length) for e in lineage]
        )
        # "20s" would silently pad or cut a hash of any other length
        if any(len(p.content_hash) != 20 for p in pages):
            raise ValueError("content hash is not 20 bytes")
    except (struct.error, TypeError, ValueError) as exc:
        raise ObjectStoreError(f"manifest row does not encode: {exc}") from exc
    return encode({"v": MANIFEST_VERSION, "meta": meta, "records": record_rows,
                   "pages": page_rows, "lineage": lineage_rows})


def parse_manifest(payload: bytes) -> Manifest:
    """Inverse of :func:`encode_manifest`.  A payload that checksums but
    decodes to the wrong shape — another version, a table that is not
    whole rows of ``bytes`` — raises :class:`ObjectStoreError`, never a
    stray ``KeyError``/``TypeError``."""
    try:
        value = decode(payload)
        if value["v"] != MANIFEST_VERSION:
            raise ValueError(f"manifest version {value['v']!r}")
        record_rows, page_rows = value["records"], value["pages"]
        lineage_rows = value["lineage"]
        if not type(record_rows) is type(page_rows) is type(lineage_rows) is bytes:
            raise TypeError("row table is not bytes")
        if (len(record_rows) % _RECORD_ROW.size or len(page_rows) % _PAGE_ROW.size
                or len(lineage_rows) % _LINEAGE_ROW.size):
            raise ValueError("row table is not whole rows")
        return Manifest(
            value["meta"],
            [MetaRef(oid, Extent(off, length))
             for oid, off, length in _RECORD_ROW.iter_unpack(record_rows)],
            PageTable(page_rows),
            [Extent(off, length)
             for off, length in _LINEAGE_ROW.iter_unpack(lineage_rows)],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ObjectStoreError(f"malformed manifest: {exc!r}") from exc


def replay(layers: Sequence[Iterable[tuple]]) -> dict:
    """A base plus its deltas as one table: ``layers`` come newest first
    (a delta, its ancestors', the base last), each an iterable of
    ``(key, value)`` rows, and are applied oldest first so the newest
    row for a key wins.  Slot maps overlay their records' rows through
    this, and an incremental resolves its hashes through its lineage's
    page tables with it."""
    table: dict = {}
    for layer in reversed(layers):
        table.update(layer)
    return table


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
