"""Content-hash deduplication of page data.

"The object store also deduplicates otherwise unrelated checkpoints on
disk for higher storage density" (paper §2) — and §4's serverless
story depends on it: every function instance is a small delta over the
shared runtime image.  Pages are keyed by content hash; identical
pages are stored once and refcounted across checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.objstore.alloc import Extent
from repro.objstore.snapshot import PageRef


@dataclass
class DedupEntry:
    #: the one reference to this content: every dedup hit returns it, so
    #: page maps share one object per stored page.  Its extent, decoded
    #: length and codec facts (flags, delta chain depth) are the entry's
    ref: PageRef
    refcount: int
    #: on-media logical footprint of the record (what the flush path
    #: charged the device); header + full page for RAW
    media_bytes: int = 0
    #: delta-encoded records only: content hash of the base page the
    #: record patches.  A rebuild from manifests knows the chain depth
    #: but not the base: until
    #: :meth:`~repro.objstore.store.ObjectStore._recovered_base` reads
    #: the record, a delta's ``base_hash`` is None
    base_hash: bytes | None = None
    #: the host's one decoded copy of the page, set by the first
    #: cache-miss decode and handed out by every later one that decodes
    #: equal, so each restored world shares it; it lives as long as the
    #: entry (release, a rebuild) unless scrub finds the record damaged.
    #: Page-cache residency stays the *simulated* cost; this bounds the
    #: host's copies to one per live record
    content: bytes | None = field(default=None, repr=False, compare=False)

    @property
    def extent(self) -> Extent:
        return self.ref.extent

    @property
    def length(self) -> int:
        """Decoded page content length; the stored record payload may
        be shorter (compressed/delta encodings)."""
        return self.ref.length

    @property
    def flags(self) -> int:
        """The record's encoding flags (``repro.objstore.record.ENC_*``)."""
        return self.ref.flags

    @property
    def depth(self) -> int:
        """Delta chain depth (0 = a full record)."""
        return self.ref.depth


@dataclass
class DedupStats:
    #: page bytes held again after their first hold: stored once,
    #: referenced more than once (the density report's saving)
    bytes_deduped: int = 0


class DedupIndex:
    """content hash -> the stored page's :class:`PageRef`, with refcounts."""

    def __init__(self):
        self._entries: dict[bytes, DedupEntry] = {}
        self.stats = DedupStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, content_hash: bytes) -> DedupEntry | None:
        return self._entries.get(content_hash)

    def insert(self, ref: PageRef, media_bytes: int = 0,
               base_hash: bytes | None = None) -> DedupEntry:
        if ref.content_hash in self._entries:
            raise AssertionError("dedup insert of existing hash")
        entry = DedupEntry(ref=ref, refcount=0, media_bytes=media_bytes,
                           base_hash=base_hash)
        self._entries[ref.content_hash] = entry
        return entry

    def hold(self, content_hash: bytes, nbytes: int = 0) -> None:
        entry = self._entries[content_hash]
        if entry.refcount > 0 and nbytes:
            self.stats.bytes_deduped += nbytes
        entry.refcount += 1

    def hold_many(self, refs: Iterable[PageRef]) -> None:
        """:meth:`hold` each ref's content, its length counting as
        deduplicated bytes past the first hold."""
        entries = self._entries
        saved = 0
        try:
            for ref in refs:
                entry = entries[ref.content_hash]
                if entry.refcount > 0:
                    saved += ref.length
                entry.refcount += 1
        finally:
            self.stats.bytes_deduped += saved

    def release(self, content_hash: bytes) -> Extent | None:
        """Drop one reference; returns the extent to free at zero."""
        entry = self._entries.get(content_hash)
        if entry is None:
            raise KeyError(f"release of unknown hash {content_hash.hex()}")
        if entry.refcount <= 0:
            raise AssertionError("dedup refcount underflow")
        entry.refcount -= 1
        if entry.refcount == 0:
            del self._entries[content_hash]
            return entry.extent
        return None

    def refcount(self, content_hash: bytes) -> int:
        entry = self._entries.get(content_hash)
        return entry.refcount if entry else 0

    def entries(self) -> dict[bytes, DedupEntry]:
        return dict(self._entries)
