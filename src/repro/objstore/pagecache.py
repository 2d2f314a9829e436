"""Restore-side page cache and fault-order record/replay.

Aurora's single level store makes restore the hot path: a lazy restore
faults its working set in page by page, and without a cache every
fault reads through to the device (~10 µs per miss).  The
:class:`PageCache` sits in front of ``ObjectStore.read_page`` /
``read_pages_coalesced`` and is keyed by *content hash*, so dedup'd
pages and delta-decoded bases share one entry no matter how many
snapshots reference them.  Content-hash keying also makes entries
immune to going stale by mutation — stored page content is immutable
under a hash — so invalidation is only needed when a hash leaves the
store (snapshot delete), when in-memory truth is rebuilt wholesale
(``recover()``/fsck repair), or when scrub finds the media copy
damaged (a cached clean copy must not mask damage).

The cache bounds *simulated* residency — what a hit saves on the
virtual clock, decode CPU included.  It does not bound host memory or
host work: a cached page is the same object as its dedup entry's one
decoded copy (``DedupEntry.content``), which every later cache miss
that reads the same record (the same verified header checksum) hands
out again without decoding, so an eviction costs the next reader sim
time, and the host a device read and a checksum, not another decode or
copy.

On top of the cache, :class:`FaultOrderLog` records the page-fault
sequence of a lazy restore (a compact JSONL artifact, byte-stable
across runs); a later restore of the same snapshot replays it
as a prefetch stream — coalesced batched reads fanned round-robin
across the NVMe submission queues ahead of the faulting workload — so
p99 fault latency collapses to a cache hit (JASS: let observed
workload behavior drive storage policy).

Determinism: the cache is a plain :class:`~collections.OrderedDict`
LRU over virtual-clock-driven accesses — two runs of the same
workload produce byte-identical hit/miss/eviction traces
(enable ``record_trace`` and compare :meth:`PageCache.trace_text`).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.obs import names as obs_names
from repro.obs.registry import attr_reader
from repro.units import MIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import Registry

#: default per-store cache capacity: 2048 pages — big enough to hold a
#: fleet function's working set, small next to the simulated machine
DEFAULT_PAGE_CACHE_BYTES = 8 * MIB

#: pages per coalesced read batch when replaying a recorded fault
#: order (``ObjectStore.prefetch_pages``) — each batch fans its runs
#: round-robin across every submission queue
PREFETCH_BATCH_PAGES = 128


class PageCache:
    """Deterministic LRU cache of decoded page content, by content hash.

    ``capacity_bytes <= 0`` disables the cache entirely: lookups
    return ``None`` without counting and fills are dropped, so a
    disabled cache is byte-for-byte the pre-cache read-through path
    (the bench suite's "without cache" baseline).
    """

    def __init__(self, capacity_bytes: int = DEFAULT_PAGE_CACHE_BYTES,
                 record_trace: bool = False):
        self.capacity_bytes = int(capacity_bytes)
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self.bytes_cached = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0
        #: opt-in operation trace for the determinism tests (one line
        #: per cache event); off by default so fleet-scale runs don't
        #: accumulate unbounded history
        self.record_trace = record_trace
        self.trace: list[str] = []

    # -- observability -------------------------------------------------------

    def attach_obs(self, registry: "Registry", store: str) -> None:
        """Register the per-store instruments as views of this cache's
        own counts (nothing is pushed per lookup)."""
        registry.counter(obs_names.C_PAGECACHE_HITS,
                         attr_reader(self, "hits"), store=store)
        registry.counter(obs_names.C_PAGECACHE_MISSES,
                         attr_reader(self, "misses"), store=store)
        registry.counter(obs_names.C_PAGECACHE_EVICTIONS,
                         attr_reader(self, "evictions"), store=store)
        registry.counter(obs_names.C_PAGECACHE_INVALIDATIONS,
                         attr_reader(self, "invalidations"), store=store)
        registry.gauge(obs_names.G_PAGECACHE_BYTES,
                       attr_reader(self, "bytes_cached"), store=store)
        registry.gauge(obs_names.G_PAGECACHE_HIT_RATE,
                       attr_reader(self, "hit_rate_permille"), store=store)

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    @property
    def hit_rate_permille(self) -> int:
        """Lifetime hit rate as an integer permille (0 when idle)."""
        lookups = self.hits + self.misses
        return self.hits * 1000 // lookups if lookups else 0

    def _trace(self, op: str, content_hash: Optional[bytes] = None,
               extra: Optional[int] = None) -> None:
        if not self.record_trace:
            return
        line = op if content_hash is None else f"{op} {content_hash.hex()}"
        if extra is not None:
            line = f"{line} {extra}"
        self.trace.append(line)

    def trace_text(self) -> str:
        """The operation trace as one byte-stable blob (tests compare
        this across runs)."""
        return "\n".join(self.trace) + ("\n" if self.trace else "")

    # -- lookups -------------------------------------------------------------

    def get(self, content_hash: bytes) -> Optional[bytes]:
        """Accounted lookup: counts a hit or miss, refreshes LRU order."""
        if not self.enabled:
            return None
        content = self._entries.get(content_hash)
        if content is None:
            self.misses += 1
            self._trace("miss", content_hash)
            return None
        self._entries.move_to_end(content_hash)
        self.hits += 1
        self._trace("hit", content_hash)
        return content

    def get_many(self, hashes: list[bytes]) -> list[Optional[bytes]]:
        """:meth:`get` each of ``hashes`` in turn; one result each."""
        if not self.enabled:
            return [None] * len(hashes)
        entries = self._entries
        found = list(map(entries.get, hashes))
        hits = [h for h, content in zip(hashes, found) if content is not None]
        for content_hash in hits:
            entries.move_to_end(content_hash)
        self.hits += len(hits)
        self.misses += len(hashes) - len(hits)
        if self.record_trace:
            for content_hash, content in zip(hashes, found):
                self._trace("miss" if content is None else "hit", content_hash)
        return found

    def peek(self, content_hash: bytes) -> Optional[bytes]:
        """Unaccounted lookup: no hit/miss counting, no LRU refresh.

        The prefetch path uses this to skip already-cached refs — a
        deliberate warm-up must not distort the demand hit rate.
        """
        if not self.enabled:
            return None
        return self._entries.get(content_hash)

    # -- fills and invalidation ----------------------------------------------

    def put(self, content_hash: bytes, content: bytes) -> None:
        """Fill one decoded page; evicts LRU entries to stay in budget."""
        if not self.enabled or len(content) > self.capacity_bytes:
            return
        if content_hash in self._entries:
            self._entries.move_to_end(content_hash)
            return
        self._entries[content_hash] = content
        self.bytes_cached += len(content)
        self.insertions += 1
        self._trace("fill", content_hash, len(content))
        self._evict_to_capacity()

    def _evict_to_capacity(self) -> None:
        """Drop LRU entries until the cache fits its capacity (every
        entry, when the capacity is 0), counting and tracing each."""
        while self._entries and (self.bytes_cached > self.capacity_bytes
                                 or not self.enabled):
            evicted_hash, evicted = self._entries.popitem(last=False)
            self.bytes_cached -= len(evicted)
            self.evictions += 1
            self._trace("evict", evicted_hash)

    def invalidate(self, content_hash: bytes) -> bool:
        """Drop one entry (snapshot delete freed it, or scrub found
        its media copy damaged).  Returns whether it was present."""
        content = self._entries.pop(content_hash, None)
        if content is None:
            return False
        self.bytes_cached -= len(content)
        self.invalidations += 1
        self._trace("invalidate", content_hash)
        return True

    def clear(self) -> int:
        """Drop everything (recovery/fsck rebuilt the store's truth);
        returns how many entries were dropped."""
        dropped = len(self._entries)
        self.invalidations += dropped
        self._entries.clear()
        self.bytes_cached = 0
        self._trace("clear", extra=dropped)
        return dropped

    def resize(self, capacity_bytes: int) -> None:
        """Change capacity in place; shrinking evicts LRU-first and
        resizing to 0 disables the cache (dropping every entry)."""
        self.capacity_bytes = int(capacity_bytes)
        self._evict_to_capacity()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, content_hash: bytes) -> bool:
        return content_hash in self._entries


# --- fault-order record/replay ------------------------------------------------


@dataclass(frozen=True)
class FaultRecord:
    """One recorded lazy-restore page fault."""

    oid: int
    pindex: int
    content_hash: bytes


class FaultOrderLog:
    """The page-fault sequence of one lazy restore, in fault order.

    Recorded by the store pager of an ``SLS.restore(record_faults=True)``;
    replayed by ``SLS.restore(prefetch="recorded")`` as a prefetch
    stream.  Serializes to JSON lines keyed only by the world's own
    ids and content hashes, so the artifact is byte-stable across
    runs.
    """

    def __init__(self):
        self.entries: list[FaultRecord] = []

    def record(self, oid: int, pindex: int, content_hash: bytes) -> None:
        self.entries.append(FaultRecord(
            oid=oid, pindex=pindex, content_hash=content_hash
        ))

    def clear(self) -> None:
        self.entries = []

    def __len__(self) -> int:
        return len(self.entries)

    def to_jsonl(self) -> str:
        """Compact JSON-lines rendering (the CI artifact)."""
        lines = [
            json.dumps(
                {"hash": rec.content_hash.hex(),
                 "oid": rec.oid, "pindex": rec.pindex},
                sort_keys=True,
            )
            for rec in self.entries
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "FaultOrderLog":
        log = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            value = json.loads(line)
            log.record(
                int(value["oid"]), int(value["pindex"]),
                bytes.fromhex(value["hash"]),
            )
        return log
