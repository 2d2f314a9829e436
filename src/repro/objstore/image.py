"""The image format: what a snapshot's records mean.

Every producer of a snapshot someone reads back (``StoreBackend.
persist``, ``import_image``, ``MigrationReceiver.build_image``,
``datasnap``, ``SlsFS.sync``) stores a *value* — whatever it wants back
— and a *slot map* ``{oid: {slot: PageRef}}`` saying which page sits
where.  On media that is one metadata record, ``{"meta": value,
"pagemap_delta": {oid: PAGEMAP_ROW rows}}``, first in a manifest whose
page table binds the hashes of the slots it set to their extents.  An
incremental's record holds only the slots that differ from its parent's
map, its manifest only those slots' pages, and it lists its lineage —
each ancestor's record and manifest, newest first — after its own:
refcounts pin them, so the snapshot reads back from its own manifest
and its lineage's whatever happens to the ancestors' names.  Nothing
outside this module spells or parses the layout.  A restore already
holding the value a producer stored (``CheckpointImage.meta``) reads
and verifies the snapshot's own record without decoding it
(:func:`verify_image_record`).
"""

from __future__ import annotations

import struct
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from repro.errors import ImageFormatError, ObjectStoreError
from repro.objstore.alloc import Extent
from repro.objstore.record import shaped
from repro.objstore.snapshot import PAGEMAP_ROW, MetaRef, PageRef, Snapshot, replay


#: a page ref's content hash, for ``map``
_content_hash = attrgetter("content_hash")


class SlotMap(dict):
    """One object's ``{slot: page}`` in an image's map: a value.  It is
    immutable once built, so an image shares it with its children (an
    object a freeze did not touch keeps its parent's map) and a store
    shares it between images whose maps for an object are equal
    (:class:`SlotMapTable`)."""

    __slots__ = ("__weakref__",)

    def _immutable(self, *_args, **_kwargs):
        raise TypeError("a slot map is immutable once built")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable


def overlay(base: Optional[Mapping], slots: Mapping) -> SlotMap:
    """A new map: ``base`` (the parent's map, or None) with ``slots``
    set.  Slots ``base`` has keep their place; new ones follow, in
    ``slots``' order."""
    new = SlotMap(base or ())
    dict.update(new, slots)
    return new


def overlay_maps(base_map: Optional[Mapping], changed: Mapping,
                 share=None) -> dict:
    """An image's map: ``base_map`` (the parent's) with each changed
    object's slots overlaid.  An object ``changed`` does not name keeps
    the parent's map object; each overlaid map goes through ``share``
    (a store's :meth:`SlotMapTable.share`) when given."""
    page_map = dict(base_map) if base_map else {}
    for oid, slots in changed.items():
        new = overlay(page_map.get(oid), slots)
        page_map[oid] = share(new) if share is not None else new
    return page_map


class SlotMapTable:
    """A store's live slot maps by content.  It holds them weakly: a
    map leaves with the last image holding it.  The key is the hash of
    the map's slots and content hashes in order, so no key keeps the
    rows alive; on a collision the later map simply stays unshared."""

    def __init__(self):
        self._live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def share(self, slots: Mapping[int, PageRef]) -> SlotMap:
        """The live map equal to ``slots`` (same slots in the same
        order, equal refs), else ``slots`` itself as a :class:`SlotMap`,
        now the one others share."""
        order = tuple(slots)
        key = hash((order, tuple(map(_content_hash, slots.values()))))
        live = self._live.get(key)
        if live is not None and live == slots and tuple(live) == order:
            return live
        new = slots if type(slots) is SlotMap else SlotMap(slots)
        if live is None:
            self._live[key] = new
        return new


@dataclass(frozen=True)
class Lineage:
    """An image as its descendants list it: its own record and manifest
    first, then its ancestors' back to the covering full image."""

    records: tuple[MetaRef, ...] = ()
    manifests: tuple[Extent, ...] = ()


def write_image(store, *, name: str, meta, value, page_map: dict,
                oid: int = 0, epoch: int = 0, parent_id: int | None = None,
                base_map: dict | None = None, base: Lineage = Lineage(),
                ) -> tuple[Snapshot, Lineage]:
    """Commit ``value`` + the complete ``page_map`` as snapshot ``name``;
    returns the snapshot and its :class:`Lineage`.  An incremental
    passes its parent's map and lineage as ``base_map`` / ``base``: its
    record and manifest then carry only the slots that changed."""
    base_map = base_map or {}
    delta: dict[int, bytes] = {}
    added: list[PageRef] = []
    try:
        for obj, slots in page_map.items():
            old = base_map.get(obj)
            if old is slots:
                continue  # the parent's map object: nothing changed
            changed = slots if not old else {
                slot: ref for slot, ref in slots.items()
                if slot not in old or old[slot].content_hash != ref.content_hash
            }
            if changed:
                refs = list(changed.values())
                delta[obj] = b"".join(
                    map(PAGEMAP_ROW.pack, changed, map(_content_hash, refs))
                )
                added += refs
    except struct.error as exc:
        raise ObjectStoreError(f"image {name!r}: slot row does not encode: {exc}") from exc
    record = store.write_meta(
        oid=oid, value={"meta": value, "pagemap_delta": delta}, epoch=epoch
    )
    snapshot = store.commit_snapshot(
        name=name, meta=meta, records=[record, *base.records], pages=added,
        epoch=epoch, parent_id=parent_id, lineage=base.manifests,
        logical_bytes=sum(ref.length for slots in page_map.values()
                          for ref in slots.values()),
    )
    return snapshot, Lineage(
        (record, *base.records), (snapshot.manifest_extent, *base.manifests)
    )


def _manifest(store, snapshot: Snapshot):
    """The manifest of a snapshot that has a record to read."""
    manifest = store.load_manifest(snapshot)
    if not manifest.records:
        raise ImageFormatError(f"snapshot {snapshot.name!r} has no metadata record")
    return manifest


def _read_record(store, snapshot: Snapshot, ref: MetaRef) -> tuple[object, dict]:
    """``(value, packed slot rows by oid)`` of one image record."""
    record = store.read_meta(ref)
    if shaped(record, {"pagemap_delta": dict}) and "meta" in record and all(
        type(rows) is bytes and len(rows) % PAGEMAP_ROW.size == 0
        for rows in record["pagemap_delta"].values()
    ):
        return record["meta"], record["pagemap_delta"]
    raise ImageFormatError(
        f"snapshot {snapshot.name!r} metadata record has the wrong shape"
    )


def read_image(store, snapshot: Snapshot) -> tuple[object, dict[int, dict[int, PageRef]]]:
    """Inverse of :func:`write_image`: ``(value, complete page map)`` —
    the records' slot rows replayed oldest first, every hash resolved
    against the page tables of the manifest and its lineage.  Records
    that checksum but spell no image (none at all, no slot map, ragged
    rows, a hash no table lists) raise
    :class:`~repro.errors.ImageFormatError`."""
    manifest = _manifest(store, snapshot)
    # oldest first, the snapshot's own last
    read = [_read_record(store, snapshot, ref) for ref in reversed(manifest.records)]
    deltas = [delta for _value, delta in reversed(read)]
    hashes = {
        oid: replay([PAGEMAP_ROW.iter_unpack(delta[oid]) for delta in deltas if oid in delta])
        for oid in dict.fromkeys(oid for _value, delta in read for oid in delta)
    }
    # Only the replayed map has to resolve: a slot an ancestor wrote and
    # a later record overwrote names a hash no live table may list.
    wanted = {content_hash for slots in hashes.values() for content_hash in slots.values()}
    tables = [manifest.pages, *[store.read_manifest(extent).pages
                                for extent in manifest.lineage]]
    rows = replay([[(row[0], row) for row in table.rows_with_facts() if row[0] in wanted]
                   for table in tables])
    refs = {content_hash: PageRef(content_hash, Extent(offset, length), page_length,
                                  flags, depth)
            for content_hash, (_hash, offset, length, page_length, flags, depth)
            in rows.items()}
    try:
        return read[-1][0], {
            oid: {slot: refs[content_hash] for slot, content_hash in slots.items()}
            for oid, slots in hashes.items()
        }
    except KeyError as exc:
        raise ImageFormatError(
            f"snapshot {snapshot.name!r}: page {exc.args[0].hex()} missing from its tables"
        ) from None


def verify_image_record(store, snapshot: Snapshot) -> None:
    """Read the snapshot's manifest and its own metadata record through
    the record checksum and the kind/oid checks, without decoding the
    record: what a restore of an image whose value it already holds
    owes the medium — the same reads, and decay still surfaces as
    :class:`~repro.errors.ChecksumError`.  A snapshot with no record
    raises :class:`~repro.errors.ImageFormatError`."""
    store.read_meta_payload(_manifest(store, snapshot).records[0])
