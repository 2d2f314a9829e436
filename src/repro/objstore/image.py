"""The image format: what a snapshot's records mean.

Every producer of a snapshot someone reads back (``StoreBackend.
persist``, ``import_image``, ``MigrationReceiver.build_image``,
``datasnap``, ``SlsFS.sync``) stores a *value* — whatever it wants back
— and a *slot map* ``{oid: {slot: PageRef}}`` saying which page sits
where.  On media that is one metadata record, ``{"meta": value,
"pagemap_delta": {oid: PAGEMAP_ROW rows}}``, first in a manifest whose
page table binds every hash of the map to its extent.  An incremental's
record holds only the slots that differ from its parent's map and its
manifest lists the parent's records after its own: refcounts pin them,
so the snapshot reads back from *one* manifest whatever happens to its
ancestors.  Nothing outside this module spells or parses the layout.
"""

from __future__ import annotations

import struct

from repro.errors import ImageFormatError, ObjectStoreError
from repro.objstore.record import shaped
from repro.objstore.snapshot import PAGEMAP_ROW, MetaRef, PageRef, Snapshot


def write_image(store, *, name: str, meta, value, page_map: dict,
                oid: int = 0, epoch: int = 0, parent_id: int | None = None,
                base_map: dict | None = None, base_records=(),
                ) -> tuple[Snapshot, list[MetaRef]]:
    """Commit ``value`` + the complete ``page_map`` as snapshot ``name``;
    returns the snapshot and its manifest's record list.  An incremental
    passes its parent's map and record list as ``base_map`` /
    ``base_records``.  The manifest's pages are the map's refs."""
    base_map = base_map or {}
    delta: dict[int, bytes] = {}
    try:
        for obj, slots in page_map.items():
            old = base_map.get(obj, {})
            rows = b"".join([
                PAGEMAP_ROW.pack(slot, ref.content_hash)
                for slot, ref in slots.items()
                if slot not in old or old[slot].content_hash != ref.content_hash
            ])
            if rows:
                delta[obj] = rows
    except struct.error as exc:
        raise ObjectStoreError(f"image {name!r}: slot row does not encode: {exc}") from exc
    record = store.write_meta(
        oid=oid, value={"meta": value, "pagemap_delta": delta}, epoch=epoch
    )
    records = [record, *base_records]
    snapshot = store.commit_snapshot(
        name=name, meta=meta, records=records,
        pages=[ref for slots in page_map.values() for ref in slots.values()],
        epoch=epoch, parent_id=parent_id,
    )
    return snapshot, records


def _manifest(store, snapshot: Snapshot):
    """``(records, pages)`` of a snapshot that has a record to read."""
    _meta, records, pages = store.load_manifest(snapshot)
    if not records:
        raise ImageFormatError(f"snapshot {snapshot.name!r} has no metadata record")
    return records, pages


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
    the records' slot rows overlaid oldest first, every hash resolved
    against the manifest's page table.  Records that checksum but spell
    no image (none at all, no slot map, ragged rows, a hash the manifest
    does not list) raise :class:`~repro.errors.ImageFormatError`."""
    records, pages = _manifest(store, snapshot)
    hashes: dict[int, dict[int, bytes]] = {}
    for ref in reversed(records):  # oldest first, the snapshot's own last
        value, delta = _read_record(store, snapshot, ref)
        for oid, rows in delta.items():
            hashes.setdefault(oid, {}).update(PAGEMAP_ROW.iter_unpack(rows))
    # Only the overlaid map has to resolve: a slot an ancestor wrote and
    # a later record overwrote names a hash this manifest no longer
    # lists (and the store may have freed).
    by_hash: dict[bytes, PageRef] = {}
    for page in pages:
        by_hash.setdefault(page.content_hash, page)
    try:
        return value, {
            oid: {slot: by_hash[content_hash] for slot, content_hash in slots.items()}
            for oid, slots in hashes.items()
        }
    except KeyError as exc:
        raise ImageFormatError(
            f"snapshot {snapshot.name!r}: page {exc.args[0].hex()} missing from its manifest"
        ) from None


def read_image_value(store, snapshot: Snapshot):
    """The value half alone: one manifest and one record read, no slot
    row parsed — all a lazy restore needs up front."""
    records, _pages = _manifest(store, snapshot)
    return _read_record(store, snapshot, records[0])[0]
