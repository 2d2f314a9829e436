"""The media walker: the one place media turns into verdicts.

Recovery, fsck and scrub all ask *what does the media say?*, so they
read one definition of it.  A :class:`MediaWalk` follows superblock →
snapshot directory (through the ``dir-spill`` stub) → manifest and its
lineage's manifests → records → page content and yields one
:class:`Verdict` per reference, in fsck's vocabulary:

- ``checksum-corrupt`` — the record fails its checksum (which covers
  its header as well as its payload), or decoded page content no
  longer matches its content hash;
- ``dangling-ref`` — the extent lies outside the data area, holds no
  parseable record, or holds one of the wrong kind or oid;
- ``delta-broken-base`` — a delta's base resolves to no page this walk
  verified, in its own manifest or an earlier snapshot (commit expansion
  lists a delta's whole chain in its own manifest, so on sound media a
  verified base is always at hand);
- ``delta-chain-too-deep`` — reconstruction exceeds ``MAX_DELTA_CHAIN``:
  the writer's re-anchor bound was violated on media.

Verdicts come lazily, in manifest order, so a consumer can stop at the
first bad one: ``ObjectStore.recover`` asks for a snapshot's metadata
only (no page row is read) and discards the snapshot as a unit at the
first bad verdict, ``Fsck`` drains and classifies them all, and
``Scrubber`` takes
the enumeration and applies the same checks (:func:`unpack_verdict`,
:func:`reference_verdict`, :func:`content_verdict`) to bytes it reads
over idle queues.  The walker only ever reads the device, and reads and
checksums each extent once however many snapshots share it.  A page
table is a :class:`Table`, verified once per walk however many
snapshots read through it: the first to reach it gets a verdict per
row, every later one only its failing rows again — a bad row condemns
every snapshot whose lineage lists it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator, Optional, Union

from repro.errors import ChecksumError, ObjectStoreError
from repro.objstore.alloc import Extent
from repro.objstore.block import Volume
from repro.objstore.codec import BrokenDeltaBase, DeltaChainTooDeep
from repro.objstore.record import (
    KIND_MANIFEST,
    KIND_META,
    KIND_PAGE,
    decode,
    unpack_record,
)
from repro.objstore.snapshot import (
    DIR_SPILL_KEY,
    Manifest,
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
LINEAGE = "lineage"
RECORD = "record"
PAGE = "page"

#: record kind each role must find at its extent, and how a mismatch
#: reads in a finding
_EXPECT = {
    MANIFEST: (KIND_MANIFEST, "a manifest"),
    LINEAGE: (KIND_MANIFEST, "a manifest"),
    RECORD: (KIND_META, "metadata"),
    PAGE: (KIND_PAGE, "page data"),
}


@dataclass(frozen=True)
class Reference:
    """One reference the media makes: a snapshot's manifest, an
    ancestor's manifest its lineage lists, or a record or page one of
    those manifests lists."""

    role: str
    extent: Extent
    #: the manifest's MetaRef/PageRef (None for a manifest itself)
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


@dataclass
class Table:
    """One manifest as a walk found it: read, parsed and its rows
    verified once, however many snapshots read through it."""

    extent: Extent
    #: on the manifest record itself: readable, a manifest, parses
    verdict: Verdict
    manifest: Optional[Manifest] = None
    #: rows that verified end to end, once the rows were walked
    pages: list[PageRef] = field(default_factory=list)
    #: the verdicts of the rows that did not
    bad: list[Verdict] = field(default_factory=list)
    walked: bool = False


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
        #: (offset, length) -> the manifest found there
        self._tables: dict[tuple[int, int], Table] = {}
        #: content hash -> decoded, hash-verified page content (delta
        #: bases resolve here across snapshots)
        self._content: dict[bytes, bytes] = {}

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

    def table(self, reference: Reference) -> Table:
        """The manifest ``reference`` names, read and parsed once per
        walk (its rows are walked by :meth:`snapshot`)."""
        key = (reference.extent.offset, reference.extent.length)
        table = self._tables.get(key)
        if table is None:
            outcome = self.record(reference.extent)
            verdict = reference_verdict(reference, outcome)
            manifest = None
            if outcome[0] == "bad":
                verdict = Verdict(reference, verdict.kind,
                                  f"manifest unreadable: {verdict.detail}")
            elif verdict.ok:
                try:
                    manifest = parse_manifest(outcome[2])
                except ObjectStoreError as exc:
                    verdict = Verdict(reference, CHECKSUM_CORRUPT,
                                      f"manifest payload does not decode: {exc}")
            table = self._tables[key] = Table(reference.extent, verdict, manifest)
        return table

    def view(self, snapshot: Snapshot) -> list[Table]:
        """The tables ``snapshot`` reads through: its own manifest's,
        then its lineage's newest first (only its own when that does not
        parse)."""
        own = self.table(Reference(MANIFEST, snapshot.manifest_extent, None, snapshot.name))
        if own.manifest is None:
            return [own]
        return [own, *[self.table(Reference(LINEAGE, extent, None, snapshot.name))
                       for extent in own.manifest.lineage]]

    def snapshot(self, snapshot: Snapshot, *, pages: bool = True) -> Iterator[Verdict]:
        """One verdict per reference of ``snapshot``, lazily: the
        manifest, each lineage manifest, each metadata record, then the
        rows of every table it reads through — all of them from the
        first snapshot to reach a table, only the failing ones from any
        later one.  ``pages=False`` stops before the rows: the
        snapshot's metadata only, and no page record is read."""
        name = snapshot.name
        own = self.table(Reference(MANIFEST, snapshot.manifest_extent, None, name))
        yield Verdict(Reference(MANIFEST, own.extent, None, name),
                      own.verdict.kind, own.verdict.detail)
        if own.manifest is None:
            return
        tables = self.view(snapshot)
        for table in tables[1:]:
            yield Verdict(Reference(LINEAGE, table.extent, None, name),
                          table.verdict.kind, table.verdict.detail)
        for ref in own.manifest.records:
            yield reference_verdict(Reference(RECORD, ref.extent, ref, name),
                                    self.record(ref.extent))
        if not pages:
            return
        for table in tables:
            if table.manifest is None:
                continue
            if table.walked:
                for verdict in table.bad:
                    yield replace(verdict, reference=replace(verdict.reference,
                                                             snapshot=name))
            else:
                yield from self._walk_rows(table, name)

    def _walk_rows(self, table: Table, name: str) -> list[Verdict]:
        """Verify every row of ``table`` (for snapshot ``name``), filling
        its ``pages``/``bad``.  Two passes — a delta's base may appear
        later in the manifest — so record-level failures come first,
        then the content verdict (decode through the chain + content
        hash) of every row whose record verified, in manifest order."""
        table.walked = True
        verdicts: list[Verdict] = []
        pending: dict[bytes, tuple[int, bytes]] = {}
        candidates: list[Reference] = []
        for ref in table.manifest.pages:
            reference = Reference(PAGE, ref.extent, ref, name)
            outcome = self.record(ref.extent)
            verdict = reference_verdict(reference, outcome)
            if verdict.ok:
                pending.setdefault(ref.content_hash, (outcome[1].flags, outcome[2]))
                candidates.append(reference)
            else:
                verdicts.append(verdict)
        for reference in candidates:
            verdicts.append(content_verdict(
                self.store, reference, pending, self._content, fetch=False
            ))
        for verdict in verdicts:
            if verdict.ok:
                table.pages.append(verdict.reference.ref)
            else:
                table.bad.append(verdict)
        return verdicts
