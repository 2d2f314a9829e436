"""Online scrub: background checksum verification of the object store.

Where :mod:`repro.objstore.fsck` is the offline tool you run *after*
suspecting damage, the scrubber is how damage gets noticed while the
store is live: it walks every extent reachable from the snapshot
directory in bounded steps, reads each record on whichever submission
queue is idlest (:meth:`~repro.hw.device.StorageDevice.idlest_queue` —
the scrub soaks up idle multi-queue bandwidth rather than contending
with the persist path on one channel), and verifies record checksums
plus page content hashes.

Progress and errors export through ``repro.obs``
(``objstore.scrub.progress_permille``,
``objstore.scrub.extents_verified_total``,
``objstore.scrub.errors_total``) so ``sls stats`` can render a scrub
table.  Errors are reported as :class:`~repro.objstore.fsck.FsckFinding`
values in the same vocabulary fsck uses — a failed scrub hands its
findings straight to ``sls fsck --repair``.

Failpoint ``objstore.scrub.step`` fires at every step boundary, which
also makes each step a crash point in the ``sls crashtest`` sweep: a
power cut mid-scrub must leave nothing to repair, since scrubbing only
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fault import names as fault_names
from repro.obs import names as obs_names
from repro.objstore.fsck import FsckFinding
from repro.objstore.store import ObjectStore
from repro.objstore.walk import (
    PAGE,
    RECORD,
    MediaWalk,
    Reference,
    Verdict,
    content_verdict,
    in_bounds,
    reference_verdict,
    unpack_verdict,
)

#: default number of extents verified per scrub step — small enough
#: that one step never monopolizes the device, large enough that a
#: full pass over a checkpoint workload takes a handful of steps
DEFAULT_BATCH_EXTENTS = 16


@dataclass
class ScrubStats:
    extents_total: int = 0
    extents_verified: int = 0
    bytes_verified: int = 0
    errors: int = 0
    steps: int = 0

    @property
    def done(self) -> bool:
        return self.extents_verified >= self.extents_total

    @property
    def progress_permille(self) -> int:
        if not self.extents_total:
            return 1000
        return min(1000, self.extents_verified * 1000 // self.extents_total)


class Scrubber:
    """One bounded-step verification pass over a live store.

    The worklist snapshots the directory at construction; run
    :meth:`step` from any idle moment (or :meth:`run` to completion).
    A scrubber never writes — repair belongs to fsck.
    """

    def __init__(self, store: ObjectStore,
                 batch_extents: int = DEFAULT_BATCH_EXTENTS):
        if batch_extents < 1:
            raise ValueError("scrub batch must verify at least one extent")
        self.store = store
        self.batch_extents = batch_extents
        self.stats = ScrubStats()
        self.findings: list[FsckFinding] = []
        self._cursor = 0
        #: content hash -> decoded content this run verified against its
        #: hash: delta bases resolve here instead of by a point read
        #: each, and the memo is dropped when the run ends
        self._verified: dict[bytes, bytes] = {}
        self._g_progress = self._c_verified = self._c_errors = None
        if store.obs is not None:
            reg = store.obs.registry
            label = store.device.name
            self._g_progress = reg.gauge(
                obs_names.G_SCRUB_PROGRESS, store=label
            )
            self._c_verified = reg.counter(
                obs_names.C_SCRUB_EXTENTS, store=label
            )
            self._c_errors = reg.counter(obs_names.C_SCRUB_ERRORS, store=label)
        # Built last: an unreadable manifest is reported while enumerating.
        self._worklist = self._build_worklist()
        self.stats.extents_total = len(self._worklist)
        if self._g_progress is not None:
            self._g_progress.set(self.stats.progress_permille)

    def _build_worklist(self) -> list[Reference]:
        """Every unique reachable reference the media walker enumerates
        — keyed by (offset, length, role), so two claimants of the same
        bytes are each verified — sorted by media offset so the scrub
        reads sequentially per queue."""
        walk = MediaWalk(self.store)
        items: dict[tuple[int, int, str], Reference] = {}
        listed: set = set()  # tables, each listed once
        for snapshot in self.store.snapshots():
            tables = walk.view(snapshot)
            own = tables[0].manifest
            references = [Reference(RECORD, r.extent, r, snapshot.name)
                          for r in (own.records if own else [])]
            for table in tables:
                if table.extent in listed:
                    continue
                listed.add(table.extent)
                if not table.verdict.ok:
                    # Fully judged already, and its rows cannot be listed.
                    self._record_error(table.verdict)
                    continue
                references.append(table.verdict.reference)
                references.extend(Reference(PAGE, p.extent, p, snapshot.name)
                                  for p in table.manifest.pages)
            for item in references:
                items.setdefault(
                    (item.extent.offset, item.extent.length, item.role), item
                )
        return [items[key] for key in sorted(items)]

    def _record_error(self, verdict: Verdict) -> None:
        self.findings.append(FsckFinding.of(verdict))
        self.stats.errors += 1
        if self._c_errors is not None:
            self._c_errors.inc()
        if verdict.reference.role == PAGE:
            # A cached clean copy must not mask the media damage the
            # scrub just found — drop it, and the entry's shared copy
            # with the record it came from, so the next read decodes.
            content_hash = verdict.reference.ref.content_hash
            self.store.pagecache.invalidate(content_hash)
            entry = self.store.dedup.get(content_hash)
            if entry is not None:
                entry.content = entry.decoded_from = None

    def _verify(self, item: Reference, raw: Optional[bytes]) -> None:
        """Judge one extent with the walker's checks (``raw`` is None
        for an out-of-bounds reference, which is never read).  Encoded
        pages reconstruct from media, never from the page cache: a delta
        base resolves from this run's memo of hash-verified content, or
        by a point read through the dedup index — the scrubber runs
        against a live, recovered store.  The memo never vouches for an
        item's own bytes (another extent may hold the same hash): those
        are always decoded and hashed from this read, and only content
        that verified enters the memo."""
        outcome = unpack_verdict(item.extent, raw)
        verdict = reference_verdict(item, outcome)
        if verdict.ok and item.role == PAGE:
            _ok, header, stored = outcome
            content_hash = item.ref.content_hash
            self._verified.pop(content_hash, None)
            verdict = content_verdict(
                self.store, item,
                {content_hash: (header.flags, stored, header.checksum)},
                self._verified, fetch=True,
            )
        if not verdict.ok:
            self._record_error(verdict)

    def step(self) -> int:
        """Verify the next batch of extents; returns how many.

        Fires ``objstore.scrub.step`` before touching the device, fans
        the batch's reads out over the idlest submission queues, then
        advances the clock once to the slowest completion — the same
        overlap model the restore path's coalesced reads use.
        """
        if self.stats.done:
            return 0
        store = self.store
        batch = self._worklist[self._cursor:self._cursor + self.batch_extents]
        if store.faults is not None and store.faults.active:
            store._failpoint(
                fault_names.FP_SCRUB_STEP,
                "power cut during scrub step", "injected scrub-step failure",
                store=store.device.name, extents=len(batch),
            )
        span = None
        if store.obs is not None:
            span = store.obs.tracer.span(
                obs_names.SPAN_SCRUB,
                store=store.device.name, extents=len(batch),
            )
        self._cursor += len(batch)
        deadline = store.device.clock.now
        reads: list[tuple[Reference, Optional[bytes]]] = []
        for item in batch:
            raw = None
            if in_bounds(store.volume, item.extent):
                queue = store.device.idlest_queue()
                ticket, raw = store.volume.read_data_async(
                    item.extent.offset, item.extent.length, queue=queue
                )
                deadline = max(deadline, ticket.completes_at)
                self.stats.bytes_verified += item.extent.length
            reads.append((item, raw))
        store.device.clock.advance_to(deadline)
        for item, raw in reads:
            self._verify(item, raw)
            self.stats.extents_verified += 1
        self.stats.steps += 1
        if self.stats.done:
            self._verified = {}
        if store.obs is not None:
            self._c_verified.inc(len(batch))
            self._g_progress.set(self.stats.progress_permille)
            span.set(errors=self.stats.errors)
            span.close()
        return len(batch)

    def run(self) -> ScrubStats:
        """Step until the worklist is exhausted."""
        while self.step():
            pass
        return self.stats

    def summary(self) -> str:
        lines = [
            f"scrub: {self.stats.extents_verified}/{self.stats.extents_total} "
            f"extents verified ({self.stats.progress_permille / 10:.1f}%) in "
            f"{self.stats.steps} steps, {self.stats.bytes_verified} bytes"
        ]
        if not self.findings:
            lines.append("  clean: no checksum errors")
        for finding in self.findings:
            where = f" [{finding.snapshot}]" if finding.snapshot else ""
            lines.append(f"  {finding.kind}{where}: {finding.detail}")
        return "\n".join(lines)
