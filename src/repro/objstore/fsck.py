"""Offline check and repair for the object store (``sls fsck``).

The crash sweep (FAULTS.md) proves that a *well-behaved* power cut
tears at most the not-yet-named checkpoint.  Fsck covers everything
else: latent media corruption, reference-counting bugs, allocator
drift — damage the recovery path's happy case would silently carry
forward.  The checker walks the store exactly the way recovery does —
both consume the media walker's verdicts (:mod:`repro.objstore.walk`:
superblock → snapshot directory → manifests → records → page content)
— but instead of discarding what fails, it classifies every fault and
(in repair mode) rebuilds the store to a consistent state, salvaging
what still verifies into a ``lost+found/`` snapshot.

Corruption classes (RECOVERY.md documents each with its on-media
shape and the repair decision).  The media-level four —
``checksum-corrupt``, ``dangling-ref``, ``delta-broken-base``,
``delta-chain-too-deep`` — are the walker's verdict vocabulary; fsck's
own phases add:

- ``double-alloc`` — two references with different identities claim
  overlapping byte ranges (the allocator handed out space twice).
- ``refcount-drift`` — the in-memory dedup index or metadata refcounts
  disagree with the counts implied by the reachable manifests.
- ``orphan-extent`` — the allocator holds space nothing references
  (a leak); repair reclaims it into the free list.
- ``untracked-extent`` — a reachable record whose extent the allocator
  believes is free; repair re-reserves it before it can be clobbered.

Two entry points:

- :func:`check_store` — read-only; never writes to the device.
- :func:`repair_store` — rebuilds the store's in-memory state from the
  repaired truth (the construction :meth:`ObjectStore.recover
  <repro.objstore.store.ObjectStore.recover>` uses) and persists the
  repairs (quarantine manifests plus a new superblock, ordered behind
  them by the volume's barrier exactly like a commit).  Repair is
  idempotent: a second fsck reports zero findings.

The online counterpart (continuous verification on idle queues) is
:mod:`repro.objstore.scrub`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

from repro.errors import ObjectStoreError
from repro.fault import names as fault_names
from repro.obs import names as obs_names
from repro.objstore.alloc import Extent
from repro.objstore.record import KIND_MANIFEST
from repro.objstore.snapshot import (
    MetaRef,
    PageRef,
    Snapshot,
    SnapshotDirectory,
    encode_manifest,
)
from repro.objstore.store import ObjectStore
from repro.objstore.walk import (
    CHECKSUM_CORRUPT,
    DANGLING_REF,
    DELTA_BROKEN_BASE,
    DELTA_CHAIN_TOO_DEEP,
    MANIFEST,
    PAGE,
    RECORD,
    MediaWalk,
    Verdict,
    in_bounds,
)

# --- corruption classes (the media-level four come from the walker) ----------

DOUBLE_ALLOC = "double-alloc"
REFCOUNT_DRIFT = "refcount-drift"
ORPHAN_EXTENT = "orphan-extent"
UNTRACKED_EXTENT = "untracked-extent"

FINDING_KINDS = (
    CHECKSUM_CORRUPT,
    DANGLING_REF,
    DOUBLE_ALLOC,
    REFCOUNT_DRIFT,
    ORPHAN_EXTENT,
    UNTRACKED_EXTENT,
    DELTA_BROKEN_BASE,
    DELTA_CHAIN_TOO_DEEP,
)

#: quarantined snapshots are renamed under this prefix; the suffix
#: carries the original snap_id so repeated quarantines never collide
LOST_AND_FOUND = "lost+found/"


@dataclass
class FsckFinding:
    """One classified fault, plus what repair did (or would do) about it."""

    kind: str
    detail: str
    snapshot: Optional[str] = None
    offset: int = 0
    length: int = 0
    repaired: bool = False
    #: planned/applied remedy: quarantine, reclaim, reserve,
    #: rebuild-refcounts, drop-snapshot, report-only
    action: str = "report-only"

    @classmethod
    def of(cls, verdict: Verdict, action: str = "report-only") -> "FsckFinding":
        """The finding for a bad media-walk verdict."""
        reference = verdict.reference
        return cls(
            kind=verdict.kind, detail=verdict.detail,
            snapshot=reference.snapshot, offset=reference.extent.offset,
            length=reference.extent.length, action=action,
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FsckReport:
    """Structured result of one fsck pass (``to_json`` for CI artifacts)."""

    repair: bool = False
    generation: int = 0
    snapshots_checked: int = 0
    records_verified: int = 0
    pages_verified: int = 0
    bytes_verified: int = 0
    findings: list[FsckFinding] = field(default_factory=list)
    #: lost+found snapshot names created by repair
    quarantined: list[str] = field(default_factory=list)
    #: bytes returned to the allocator (orphans + deferred garbage)
    bytes_reclaimed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def repaired_all(self) -> bool:
        return all(f.repaired for f in self.findings)

    def counts(self) -> dict[str, int]:
        out = {kind: 0 for kind in FINDING_KINDS}
        for finding in self.findings:
            out[finding.kind] = out.get(finding.kind, 0) + 1
        return {kind: n for kind, n in out.items() if n}

    def to_dict(self) -> dict:
        return {**asdict(self), "clean": self.clean,
                "repaired_all": self.repaired_all}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        mode = "repair" if self.repair else "check"
        lines = [
            f"fsck ({mode}): generation {self.generation}, "
            f"{self.snapshots_checked} snapshots, "
            f"{self.records_verified} records, "
            f"{self.pages_verified} pages verified"
        ]
        if self.clean:
            lines.append("  clean: no findings")
            return "\n".join(lines)
        for kind, n in sorted(self.counts().items()):
            lines.append(f"  {kind:<18} {n:>4}")
        for finding in self.findings:
            mark = "repaired" if finding.repaired else "UNREPAIRED"
            where = f" [{finding.snapshot}]" if finding.snapshot else ""
            lines.append(
                f"    {finding.kind}{where}: {finding.detail}"
                f" -> {finding.action} ({mark})"
            )
        if self.quarantined:
            lines.append(f"  quarantined: {', '.join(self.quarantined)}")
        if self.bytes_reclaimed:
            lines.append(f"  reclaimed {self.bytes_reclaimed} bytes")
        return "\n".join(lines)


@dataclass
class _TableWalk:
    """Verification state for one manifest's page table — shared by its
    snapshot and every descendant whose lineage lists it, so its rows
    are counted, claimed and dropped once."""

    extent: Extent
    #: the lowest-id snapshot that reads through it, and its name
    snap_id: int
    name: str
    manifest_ok: bool = False
    #: rows that verified end-to-end (salvageable)
    pages: list[PageRef] = field(default_factory=list)
    #: rows that parsed out of the manifest but failed verification
    bad_pages: list[PageRef] = field(default_factory=list)

    @property
    def damaged(self) -> bool:
        return not self.manifest_ok or bool(self.bad_pages)


@dataclass
class _SnapshotWalk:
    """Verification state for one snapshot during the walk."""

    snapshot: Snapshot
    #: its own manifest's table, then its lineage's newest first
    tables: list[_TableWalk]
    #: its manifest's lineage extents (empty when it does not parse)
    lineage: list[Extent] = field(default_factory=list)
    #: refs that verified end-to-end (salvageable)
    records: list[MetaRef] = field(default_factory=list)
    #: refs that parsed out of the manifest but failed verification
    bad_records: list[MetaRef] = field(default_factory=list)
    damaged: bool = False

    @property
    def manifest_ok(self) -> bool:
        return self.tables[0].manifest_ok

    @property
    def intact(self) -> bool:
        return not self.damaged and not any(t.damaged for t in self.tables)

    def salvage(self) -> list[PageRef]:
        """Every row that verified, once per content hash."""
        return list({ref.content_hash: ref for table in self.tables
                     for ref in table.pages}.values())


@dataclass
class _Claim:
    """One reference's claim on a byte range of the data area."""

    offset: int
    end: int
    identity: tuple
    snap_id: int  # -1 for non-snapshot claimants (log regions)
    #: the snapshot or table that loses the reference if the claim loses
    owner: Union[_SnapshotWalk, _TableWalk, None]
    #: name of the snapshot charged with it
    name: Optional[str] = None


class Fsck:
    """One fsck pass over ``store``'s backing device.

    The walk reads the *media* superblock (not the in-memory
    directory), so the same pass works offline on a freshly booted
    store after a crash and online against a live one.  The
    allocator/refcount cross-checks need in-memory state to compare
    against, so they run only when the store has any (live or
    recovered); :func:`repair_store` always rebuilds that state from
    the repaired truth, after which a second pass checks everything.
    """

    def __init__(self, store: ObjectStore, repair: bool = False):
        self.store = store
        self.repair = repair
        self.report = FsckReport(repair=repair)
        #: the media walk whose verdicts this pass classifies
        self.media = MediaWalk(store)
        self.directory = SnapshotDirectory()
        self.walks: list[_SnapshotWalk] = []
        #: every table some snapshot reads through, by extent
        self.tables: dict[Extent, _TableWalk] = {}

    # -- phases 0-1: the media walk's verdicts become findings ------------------

    def _adopt_directory(self) -> bool:
        """Take the media directory as the root set; False when it is
        lost (one report-only finding: nothing downstream is meaningful
        without a directory)."""
        try:
            directory = self.media.directory()
            if directory is None and self.store.directory.snapshots:
                raise ObjectStoreError(
                    "no valid superblock in either slot but the live "
                    "directory is non-empty: directory unrecoverable "
                    "from media"
                )
        except ObjectStoreError as exc:
            self.report.findings.append(FsckFinding(
                kind=CHECKSUM_CORRUPT, detail=str(exc), action="report-only",
            ))
            return False
        finally:
            self.report.generation = self.media.generation
        self.directory = directory or SnapshotDirectory()
        return True

    def _classify_verdicts(self) -> None:
        for snap_id in sorted(self.directory.snapshots):
            snapshot = self.directory.snapshots[snap_id]
            self.report.snapshots_checked += 1
            records: list[MetaRef] = []
            bad_records: list[MetaRef] = []
            damaged = False
            for verdict in self.media.snapshot(snapshot):
                role, ref = verdict.reference.role, verdict.reference.ref
                if role == RECORD:
                    (records if verdict.ok else bad_records).append(ref)
                    self.report.records_verified += verdict.ok
                elif role == PAGE:
                    self.report.pages_verified += verdict.ok
                if not verdict.ok:
                    damaged = True
                    self.report.findings.append(FsckFinding.of(
                        verdict, action=("drop-snapshot" if role == MANIFEST
                                         else "quarantine"),
                    ))
            view = self.media.view(snapshot)
            for table in view:
                if table.extent not in self.tables:
                    self.tables[table.extent] = _TableWalk(
                        table.extent, snap_id, snapshot.name,
                        manifest_ok=table.manifest is not None,
                        pages=list(table.pages),
                        bad_pages=[v.reference.ref for v in table.bad],
                    )
            own = view[0].manifest
            self.walks.append(_SnapshotWalk(
                snapshot, [self.tables[table.extent] for table in view],
                lineage=own.lineage if own else [], records=records,
                bad_records=bad_records, damaged=damaged,
            ))
        self.report.bytes_verified = self.media.bytes_verified

    # -- phase 2: cross-snapshot claims (double allocation) --------------------

    def _claims(self) -> list[_Claim]:
        """Every parsed reference's claim, deduplicated by identity.

        Identity is what makes sharing legal: two snapshots listing the
        same record (same offset, length, kind-class), the same
        manifest or the same page content hash collapse to one claim.
        Overlapping claims with *different* identities mean the
        allocator handed the same bytes out twice.
        """
        unique: dict[tuple, _Claim] = {}

        def add(extent: Extent, identity: tuple, snap_id: int,
                owner: Union[_SnapshotWalk, _TableWalk, None] = None,
                name: Optional[str] = None) -> None:
            if owner is not None and not in_bounds(self.store.volume, extent):
                return
            key = (extent.offset, extent.length, identity)
            existing = unique.get(key)
            if existing is None or (existing.snap_id > snap_id >= 0):
                unique[key] = _Claim(offset=extent.offset, end=extent.end,
                                     identity=identity, snap_id=snap_id,
                                     owner=owner, name=name)

        for walk in self.walks:
            for ref in walk.records + walk.bad_records:
                add(ref.extent, ("rec", ref.extent.offset, ref.extent.length),
                    walk.snapshot.snap_id, walk, walk.snapshot.name)
        # A manifest a lineage lists is one claim however many snapshots
        # read through it, and so is each of its rows.
        for table in self.tables.values():
            if table.manifest_ok:
                add(table.extent, ("manifest",), table.snap_id, table, table.name)
            for ref in table.pages + table.bad_pages:
                add(ref.extent, ("page", ref.content_hash), table.snap_id,
                    table, table.name)
        for oid, log in self.store._logs.items():
            add(log.region, ("log", oid), -1)
        spill = self.media.dir_spill
        if spill is not None:
            add(spill, ("dir-spill", spill.offset), -1)
        return sorted(unique.values(), key=lambda c: (c.offset, c.snap_id))

    def _check_double_alloc(self, claims: list[_Claim]) -> None:
        """Scan for overlapping claims; the younger claimant loses.

        A double allocation means one of the claimants' bytes were
        overwritten; the record that still verifies is the one written
        last, but the *older* claimant (lower snap_id, or a log region)
        keeps the space so history stays intact — the younger snapshot
        is quarantined with the contested reference dropped.
        """
        open_claims: list[_Claim] = []
        for claim in claims:
            # claims come sorted by offset: one that ends at or before
            # this start overlaps nothing later either
            open_claims = [c for c in open_claims if c.end > claim.offset]
            for other in open_claims:
                if other.identity == claim.identity:
                    continue
                loser = claim if claim.snap_id >= other.snap_id else other
                winner = other if loser is claim else claim
                self.report.findings.append(FsckFinding(
                    kind=DOUBLE_ALLOC,
                    snapshot=loser.name,
                    offset=max(claim.offset, other.offset),
                    length=(min(claim.end, other.end)
                            - max(claim.offset, other.offset)),
                    detail=f"claims {winner.identity[0]}@{winner.offset} and "
                           f"{loser.identity[0]}@{loser.offset} overlap; "
                           f"older claimant keeps the bytes",
                    action="quarantine" if loser.owner else "report-only",
                ))
                if loser.owner is not None:
                    self._drop_claim(loser)
            open_claims.append(claim)

    def _drop_claim(self, claim: _Claim) -> None:
        """Drop the losing reference from *every* snapshot or table that
        shares it (a table's loss damages every snapshot reading it)."""
        def drop(good: list, bad: list) -> bool:
            dropped = [r for r in good if r.extent.offset == claim.offset]
            good[:] = [r for r in good if r.extent.offset != claim.offset]
            bad.extend(dropped)
            return bool(dropped)

        if claim.identity[0] == "manifest":
            claim.owner.manifest_ok = False
        elif claim.identity[0] == "rec":
            for walk in self.walks:
                if drop(walk.records, walk.bad_records):
                    walk.damaged = True
        else:
            for table in self.tables.values():
                drop(table.pages, table.bad_pages)

    # -- phase 3: in-memory cross-checks (refcounts, allocator) ----------------

    @property
    def _live(self) -> bool:
        """True when the store carries in-memory state to audit."""
        return (self.store.allocator.allocated_bytes > 0
                or bool(self.store.directory.snapshots))

    def _expected_refcounts(self) -> tuple[dict[bytes, int], dict[int, int]]:
        """Refcounts implied by every parseable manifest (good and bad
        refs alike — commits counted both, so drift means a counting
        bug, not corruption of the referenced bytes): a page once per
        table listing it, a record or lineage manifest once per snapshot
        listing it."""
        pages = Counter(ref.content_hash for table in self.tables.values()
                        for ref in table.pages + table.bad_pages)
        metas = Counter(ref.extent.offset for walk in self.walks
                        for ref in walk.records + walk.bad_records)
        metas.update(extent.offset for walk in self.walks for extent in walk.lineage)
        metas.update(walk.snapshot.manifest_extent.offset
                     for walk in self.walks if walk.manifest_ok)
        return pages, metas

    def _check_refcounts(self) -> None:
        def drift(detail: str, offset: int = 0, length: int = 0) -> None:
            self.report.findings.append(FsckFinding(
                kind=REFCOUNT_DRIFT, detail=detail, offset=offset,
                length=length, action="rebuild-refcounts",
            ))

        expected_pages, expected_metas = self._expected_refcounts()
        dedup = self.store.dedup
        for h, expected in sorted(expected_pages.items()):
            actual = dedup.refcount(h)
            if actual != expected:
                drift(f"dedup refcount for page {h.hex()[:12]} is "
                      f"{actual}, manifests imply {expected}")
        for h, entry in sorted(dedup.entries().items()):
            if h not in expected_pages and entry.refcount > 0:
                drift(f"dedup entry {h.hex()[:12]} holds refcount "
                      f"{entry.refcount} but no manifest references it",
                      entry.extent.offset, entry.extent.length)
        meta_refs = self.store._meta_refs
        for off, expected in sorted(expected_metas.items()):
            _, actual = meta_refs.get(off, (None, 0))
            if actual != expected:
                drift(f"metadata refcount at {off} is {actual}, "
                      f"manifests imply {expected}", off)
        for off, (extent, count) in sorted(meta_refs.items()):
            if off not in expected_metas and count > 0:
                drift(f"metadata refcount at {off} is {count} but no "
                      f"manifest references it", off, extent.length)

    @staticmethod
    def _union(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
        merged: list[list[int]] = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return [(s, e) for s, e in merged]

    @staticmethod
    def _subtract(base: list[tuple[int, int]],
                  cut: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Interval subtraction ``base - cut`` (both sorted, disjoint)."""
        out: list[tuple[int, int]] = []
        first = 0  # cuts before it end at or before every later start
        for start, end in base:
            while first < len(cut) and cut[first][1] <= start:
                first += 1
            pos, i = start, first
            while i < len(cut) and cut[i][0] < end:
                c_start, c_end = cut[i]
                if c_start > pos:
                    out.append((pos, c_start))
                pos = max(pos, c_end)
                i += 1
            if pos < end:
                out.append((pos, end))
        return out

    def _claimed_intervals(self, claims: list[_Claim],
                           include_unreachable: bool) -> list[tuple[int, int]]:
        """Byte ranges something legitimately accounts for.

        ``include_unreachable`` adds claims that are allocator-tracked
        but not snapshot-reachable — deferred garbage, open-batch
        buffers, pending dedup entries — which the orphan audit must
        not flag (they are accounted for, just not yet durable or not
        yet reclaimed).
        """
        intervals = [(c.offset, c.end) for c in claims]
        if include_unreachable:
            store = self.store
            intervals.extend((e.offset, e.end) for e in store.garbage)
            intervals.extend(
                (extent.offset, extent.end)
                for extent, _record, _logical in store.batch._items.values()
            )
            intervals.extend(
                (entry.extent.offset, entry.extent.end)
                for entry in store.dedup.entries().values()
            )
            intervals.extend(
                (extent.offset, extent.end)
                for extent, _count in store._meta_refs.values()
            )
        return self._union(intervals)

    def _check_allocator(self, claims: list[_Claim]) -> None:
        allocated = self.store.allocator.allocated_extents()
        allocated_iv = [(e.offset, e.end) for e in allocated]
        claimed = self._claimed_intervals(claims, include_unreachable=True)
        for start, end in self._subtract(allocated_iv, claimed):
            self.report.findings.append(FsckFinding(
                kind=ORPHAN_EXTENT, offset=start, length=end - start,
                detail=f"allocator holds [{start}, {end}) but nothing "
                       f"references it (leaked {end - start} bytes)",
                action="reclaim",
            ))
        reachable = self._claimed_intervals(claims, include_unreachable=False)
        for start, end in self._subtract(reachable, allocated_iv):
            self.report.findings.append(FsckFinding(
                kind=UNTRACKED_EXTENT, offset=start, length=end - start,
                detail=f"reachable bytes [{start}, {end}) are marked free in "
                       f"the allocator and could be clobbered",
                action="reserve",
            ))

    # -- phase 4: repair --------------------------------------------------------

    def _rebuild(self, intact: list[_SnapshotWalk],
                 plans: list[_SnapshotWalk]) -> None:
        """Rebuild in-memory state to the repaired truth through the
        construction recovery uses: ``intact`` snapshots adopted whole,
        ``plans``' still-verifying refs kept for quarantine."""
        self.store._rebuild(
            self.media,
            max(self.directory.next_id, self.store.directory.next_id),
            [walk.snapshot for walk in intact],
            [(walk.records, walk.salvage()) for walk in plans],
        )

    def _apply_repairs(self) -> None:
        """Rebuild the store to the repaired truth and persist it.

        Ordering mirrors a commit: the repair failpoint fires first, a
        durability barrier fences any in-flight writes (freed space
        must never be reused while an older superblock could still
        name it), quarantine manifests are written as ordinary records,
        and the new superblock goes out behind them through the store's
        one commit point, :meth:`ObjectStore._write_directory`.
        """
        store = self.store
        if store.faults is not None:
            store._failpoint(
                fault_names.FP_FSCK_REPAIR,
                "power cut during fsck repair", "injected fsck repair failure",
                store=store.device.name, findings=len(self.report.findings),
            )
        store.flush_barrier()
        before_allocated = store.allocator.allocated_bytes

        intact = [walk for walk in self.walks if walk.intact]
        # Damaged snapshots with anything left to salvage.
        plans = [walk for walk in self.walks
                 if not walk.intact and walk.manifest_ok
                 and (walk.records or walk.salvage())]
        self._rebuild(intact, plans)

        # Quarantine: each damaged-but-salvageable snapshot gets a
        # lost+found manifest listing only its still-verifying refs —
        # a full table (its lineage's verified rows folded in) with no
        # lineage of its own.
        for walk in plans:
            original = walk.snapshot
            name = f"{LOST_AND_FOUND}{original.name}@{original.snap_id}"
            pages = walk.salvage()
            manifest_extent = store._write_record(
                KIND_MANIFEST, original.epoch,
                encode_manifest(
                    {"quarantined": original.name,
                     "original_snap_id": original.snap_id,
                     "fsck": True},
                    walk.records, pages,
                ),
            )
            snapshot = Snapshot(
                snap_id=store.directory.allocate_id(),
                name=name,
                epoch=original.epoch,
                created_at_ns=store.device.clock.now,
                manifest_extent=manifest_extent,
                parent_id=None,
                delta_bytes=0,
                logical_bytes=sum(p.length for p in pages),
            )
            store._take_references(snapshot, walk.records, pages)
            self.report.quarantined.append(name)

        # The repaired superblock, ordered behind the quarantine
        # records on every queue exactly like a commit's (spilling the
        # directory to the data area when it outgrows the slot).
        store._write_directory()
        self.report.bytes_reclaimed = max(
            0, before_allocated - store.allocator.allocated_bytes
        )
        for finding in self.report.findings:
            if finding.action != "report-only":
                finding.repaired = True
        if store.obs is not None:
            reg = store.obs.registry
            reg.counter(obs_names.C_FSCK_FINDINGS,
                        store=store.device.name).inc(len(self.report.findings))
            reg.counter(obs_names.C_FSCK_REPAIRS, store=store.device.name).inc(
                sum(1 for f in self.report.findings if f.repaired)
            )

    # -- driver ----------------------------------------------------------------

    def run(self) -> FsckReport:
        if self.repair and len(self.store.batch):
            raise ObjectStoreError(
                "fsck repair needs a quiescent store: the write batch "
                "still stages records (flush or commit first)"
            )
        if not self._adopt_directory():
            # Repair must never "fix" a lost directory by writing an
            # empty one over whatever the slots still hold.
            return self.report
        self._classify_verdicts()
        claims = self._claims()
        self._check_double_alloc(claims)
        if self._live:
            self._check_refcounts()
            self._check_allocator(claims)
        if self.repair:
            if self.report.findings:
                self._apply_repairs()
            elif not self._live:
                # Clean media, fresh store: adopt the verified state
                # without touching the device — exactly recover().
                self._rebuild(self.walks, [])
        if self.report.clean:
            # A clean verdict is trusted until the next superblock
            # write (see the sls_send DR gate): cache the generation
            # it covers so repeat callers skip the full walk.
            self.store._fsck_clean_generation = self.store.volume.generation
        return self.report


def check_store(store: ObjectStore) -> FsckReport:
    """Read-only fsck pass; never writes to the device."""
    return Fsck(store, repair=False).run()


def repair_store(store: ObjectStore) -> FsckReport:
    """Fsck with repairs: leaves ``store`` recovered to the repaired
    truth (usable like after :meth:`~repro.objstore.store.ObjectStore.recover`,
    persistent logs excepted — reopen them by region) and persists the
    quarantine records and new superblock when anything was damaged."""
    return Fsck(store, repair=True).run()
