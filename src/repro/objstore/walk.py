"""The media walker: the one place media turns into verdicts.

Recovery, fsck and scrub all ask *what does the media say?*, so they
read one definition of it.  A :class:`MediaWalk` follows superblock →
snapshot directory (through the ``dir-spill`` stub) → manifest →
records → page content and yields one :class:`Verdict` per reference,
in fsck's vocabulary:

- ``checksum-corrupt`` — the record fails its Fletcher-64 checksum, or
  decoded page content no longer matches its content hash;
- ``dangling-ref`` — the extent lies outside the data area, holds no
  parseable record, or holds one of the wrong kind or oid;
- ``delta-broken-base`` — a delta's base resolves to no page this walk
  verified, in its own manifest or an earlier snapshot (commit expansion
  lists a delta's whole chain in its own manifest, so on sound media a
  verified base is always at hand);
- ``delta-chain-too-deep`` — reconstruction exceeds ``MAX_DELTA_CHAIN``:
  the writer's re-anchor bound was violated on media.

Verdicts come lazily, in manifest order, so a consumer can stop at the
first bad one: ``ObjectStore.recover`` discards the snapshot as a unit
there, ``Fsck`` drains and classifies them all, and ``Scrubber`` takes
the enumeration and applies the same checks (:func:`unpack_verdict`,
:func:`reference_verdict`, :func:`content_verdict`) to bytes it reads
over idle queues.  The walker only ever reads the device, and reads and
checksums each extent once however many snapshots share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Union

from repro.errors import ChecksumError, ObjectStoreError
from repro.objstore.alloc import Extent
from repro.objstore.block import Volume
from repro.objstore.codec import BrokenDeltaBase, DeltaChainTooDeep, delta_info
from repro.objstore.record import (
    ENC_DELTA,
    KIND_MANIFEST,
    KIND_META,
    KIND_PAGE,
    decode,
    unpack_record,
)
from repro.objstore.snapshot import (
    DIR_SPILL_KEY,
    MetaRef,
    PageRef,
    Snapshot,
    SnapshotDirectory,
    parse_manifest,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.objstore.store import ObjectStore

# --- verdict vocabulary (shared with fsck's findings) ---------------------------

CHECKSUM_CORRUPT = "checksum-corrupt"
DANGLING_REF = "dangling-ref"
DELTA_BROKEN_BASE = "delta-broken-base"
DELTA_CHAIN_TOO_DEEP = "delta-chain-too-deep"

# --- reference roles ------------------------------------------------------------

MANIFEST = "manifest"
RECORD = "record"
PAGE = "page"

#: record kind each role must find at its extent, and how a mismatch
#: reads in a finding
_EXPECT = {
    MANIFEST: (KIND_MANIFEST, "a manifest"),
    RECORD: (KIND_META, "metadata"),
    PAGE: (KIND_PAGE, "page data"),
}


@dataclass(frozen=True)
class Reference:
    """One reference the media makes: a snapshot's manifest, or a
    record or page that manifest lists."""

    role: str
    extent: Extent
    #: the manifest's MetaRef/PageRef (None for the manifest itself)
    ref: Union[MetaRef, PageRef, None]
    #: name of the referencing snapshot
    snapshot: str


@dataclass(frozen=True)
class Verdict:
    """What the media says about one reference."""

    reference: Reference
    #: finding kind, or None when the reference verifies end to end
    kind: Optional[str] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind is None


def in_bounds(volume: Volume, extent: Extent) -> bool:
    """Whether ``extent`` lies inside the data area — checked *before*
    any read, so a wild reference is a verdict, not a device access."""
    return (extent.offset >= volume.data_base
            and extent.end <= volume.data_base + volume.data_size
            and extent.length > 0)


def unpack_verdict(extent: Extent, raw: Optional[bytes]) -> tuple:
    """Record-level verdict for the bytes found at ``extent`` (``raw``
    is None when the extent is out of bounds and was never read).

    Returns ``("ok", header, payload)`` or ``("bad", kind, detail)``.
    The record checksum covers the *stored* payload (raw or encoded);
    whether encoded page content reconstructs is
    :func:`content_verdict`'s question.
    """
    if raw is None:
        return ("bad", DANGLING_REF,
                f"extent [{extent.offset}, {extent.end}) outside the "
                f"data area")
    try:
        header, payload = unpack_record(raw)
    except ChecksumError as exc:
        return ("bad", CHECKSUM_CORRUPT,
                f"record at {extent.offset} fails verification: {exc}")
    except ObjectStoreError as exc:
        return ("bad", DANGLING_REF,
                f"no parseable record at {extent.offset}: {exc}")
    return ("ok", header, payload)


def reference_verdict(reference: Reference, outcome: tuple) -> Verdict:
    """Verdict on ``reference`` given the :func:`unpack_verdict` of its
    extent: clean when the record's kind and oid are what it claims."""
    where = reference.extent.offset
    if outcome[0] == "bad":
        return Verdict(reference, outcome[1], outcome[2])
    header = outcome[1]
    expect_kind, expect_name = _EXPECT[reference.role]
    if header.kind != expect_kind:
        if reference.role == MANIFEST:
            return Verdict(reference, DANGLING_REF,
                           f"manifest extent holds a kind-{header.kind} record")
        return Verdict(reference, DANGLING_REF,
                       f"{reference.role} ref at {where} resolves to a "
                       f"kind-{header.kind} record, expected {expect_name}")
    if reference.role == RECORD and header.oid != reference.ref.oid:
        return Verdict(reference, DANGLING_REF,
                       f"record at {where} belongs to oid {header.oid}, "
                       f"manifest claims {reference.ref.oid}")
    return Verdict(reference)


def content_verdict(store: "ObjectStore", reference: Reference,
                    stash: dict[bytes, tuple[int, bytes]],
                    resolved: dict[bytes, bytes], *, fetch: bool) -> Verdict:
    """Verdict on a page reference whose record already verified:
    reconstruct its content (through the delta chain) and check it
    hashes to what the manifest claims.  Decodes media, never cache."""
    where = reference.extent.offset
    try:
        store._page_content(
            reference.ref.content_hash, stash, resolved,
            verify=True, fetch=fetch,
        )
    except DeltaChainTooDeep:
        return Verdict(reference, DELTA_CHAIN_TOO_DEEP,
                       f"delta page at {where} reconstructs through too "
                       f"many hops")
    except BrokenDeltaBase as exc:
        return Verdict(reference, DELTA_BROKEN_BASE,
                       f"delta page at {where} references base "
                       f"{exc.base_hash.hex()[:12]} which does not resolve")
    except ChecksumError:
        return Verdict(reference, CHECKSUM_CORRUPT,
                       f"page at {where} no longer matches its content hash")
    except ObjectStoreError as exc:
        return Verdict(reference, CHECKSUM_CORRUPT,
                       f"page at {where} does not decode: {exc}")
    return Verdict(reference)


class MediaWalk:
    """One pass over one store's media (see the module docstring)."""

    def __init__(self, store: "ObjectStore"):
        self.store = store
        #: generation of the superblock the directory came from
        self.generation = 0
        #: spilled-directory record named by the media superblock
        self.dir_spill: Optional[Extent] = None
        #: bytes of records that unpacked cleanly (each extent once)
        self.bytes_verified = 0
        #: (offset, length) -> :func:`unpack_verdict`, so records shared
        #: across snapshots are read and checksummed once
        self._records: dict[tuple[int, int], tuple] = {}
        #: content hash -> decoded, hash-verified page content (delta
        #: bases resolve here across snapshots)
        self._content: dict[bytes, bytes] = {}
        #: content hash -> (encoding flags, delta base hash, chain
        #: depth) of every verified page, from which a rebuild restores
        #: dedup sizes and delta chains
        self.encodings: dict[bytes, tuple[int, Optional[bytes], int]] = {}

    def directory(self) -> Optional[SnapshotDirectory]:
        """The newest valid superblock's snapshot directory, following
        a spill stub to its data-area record; None when neither slot
        holds a valid superblock.  A payload that checksums but does
        not decode as a directory raises :class:`ObjectStoreError`."""
        super_read = self.store.volume.read_superblock()
        if super_read is None:
            return None
        self.generation, payload = super_read
        try:
            value = decode(payload)
            if isinstance(value, dict) and DIR_SPILL_KEY in value:
                offset, length = value[DIR_SPILL_KEY]
                spill = Extent(int(offset), int(length))
                outcome = self.record(spill)
                if outcome[0] == "bad":
                    raise ObjectStoreError(outcome[2])
                if outcome[1].kind != KIND_META:
                    raise ObjectStoreError(
                        f"directory spill extent holds a "
                        f"kind-{outcome[1].kind} record"
                    )
                self.dir_spill = spill
                value = decode(outcome[2])
            return SnapshotDirectory.decode(value)
        except (ObjectStoreError, KeyError, TypeError, ValueError) as exc:
            raise ObjectStoreError(
                f"superblock generation {self.generation} payload does not "
                f"decode as a directory: {exc}"
            ) from exc

    def record(self, extent: Extent) -> tuple:
        """Read + verify the record at ``extent``; memoized."""
        key = (extent.offset, extent.length)
        outcome = self._records.get(key)
        if outcome is None:
            volume = self.store.volume
            raw = (volume.read_data(extent.offset, extent.length)
                   if in_bounds(volume, extent) else None)
            outcome = self._records[key] = unpack_verdict(extent, raw)
            if outcome[0] == "ok":
                self.bytes_verified += extent.length
        return outcome

    def references(self, snapshot: Snapshot) -> tuple[Verdict, list[Reference]]:
        """The verdict on ``snapshot``'s manifest and the references it
        lists: records, then pages (none when it cannot be trusted)."""
        manifest = Reference(
            MANIFEST, snapshot.manifest_extent, None, snapshot.name
        )
        outcome = self.record(manifest.extent)
        verdict = reference_verdict(manifest, outcome)
        if outcome[0] == "bad":
            verdict = Verdict(manifest, verdict.kind,
                              f"manifest unreadable: {verdict.detail}")
        if not verdict.ok:
            return verdict, []
        try:
            _meta, records, pages = parse_manifest(outcome[2])
        except ObjectStoreError as exc:
            return Verdict(manifest, CHECKSUM_CORRUPT,
                           f"manifest payload does not decode: {exc}"), []
        return verdict, (
            [Reference(RECORD, r.extent, r, snapshot.name) for r in records]
            + [Reference(PAGE, p.extent, p, snapshot.name) for p in pages]
        )

    def snapshot(self, snapshot: Snapshot) -> Iterator[Verdict]:
        """One verdict per reference of ``snapshot``, lazily: the
        manifest, each metadata record, then each page.

        Pages take two passes — a delta's base may appear later in the
        manifest — so record-level page failures come first, then the
        content verdict (decode through the chain + content hash) of
        every page whose record verified, in manifest order.
        """
        verdict, references = self.references(snapshot)
        yield verdict
        pending: dict[bytes, tuple[int, bytes]] = {}
        candidates: list[Reference] = []
        for reference in references:
            outcome = self.record(reference.extent)
            verdict = reference_verdict(reference, outcome)
            if reference.role == PAGE and verdict.ok:
                pending.setdefault(
                    reference.ref.content_hash, (outcome[1].flags, outcome[2])
                )
                candidates.append(reference)
            else:
                yield verdict
        for reference in candidates:
            content_hash = reference.ref.content_hash
            verdict = content_verdict(
                self.store, reference, pending, self._content, fetch=False
            )
            if verdict.ok and content_hash not in self.encodings:
                flags, stored = pending[content_hash]
                base_hash, depth = None, 0
                if flags == ENC_DELTA:
                    base_hash, depth, _length, _ext = delta_info(stored)
                self.encodings[content_hash] = (flags, base_hash, depth)
            yield verdict
