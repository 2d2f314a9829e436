"""The Aurora object store.

A copy-on-write record store designed for *hundreds of snapshots per
second* (paper §3): updates never overwrite live data, snapshots share
unchanged records with their parents, page data is content-deduplicated
across all checkpoints, and a dead extent is reclaimed in place, at a
commit point, without rewriting incremental history.

Durability model: there is one write path and one commit point.  Data
records (pages, metadata) are staged in the store's :class:`WriteBatch`
and reach the device coalesced, sharded over the submission queues,
when it flushes; a commit issues its tail — manifest, spilled
directory, superblock — as single commands.  Ordering is by
construction, not by convention: :meth:`ObjectStore._write_directory`
is the only caller of ``Volume.write_superblock`` and flushes the batch
itself, and the volume barriers every superblock behind all records in
flight on every queue.  A crash can therefore only tear the
not-yet-named snapshot — recovery falls back to the previous
generation, discarding the torn checkpoint as a unit.  Staging is
invisible to callers: reading a staged record and
:meth:`ObjectStore.flush_barrier` both flush first.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ChecksumError, NoSuchObject, ObjectStoreError
from repro.fault import names as fault_names
from repro.hw.device import BatchWrite, IoTicket, StorageDevice
from repro.mem.address_space import MemContext
from repro.obs import names as obs_names
from repro.obs.registry import attr_reader
from repro.hw.specs import DEFAULT_CPU
from repro.objstore.alloc import Extent, ExtentAllocator
from repro.objstore.block import SUPERBLOCK_SLOT_SIZE, Volume
from repro.objstore.codec import (
    MAX_DELTA_CHAIN,
    BrokenDeltaBase,
    DeltaChainTooDeep,
    PageCodec,
    delta_info,
)
from repro.objstore.dedup import DecodedFrom, DedupEntry, DedupIndex
from repro.objstore.image import SlotMapTable
from repro.objstore.pagecache import DEFAULT_PAGE_CACHE_BYTES, PREFETCH_BATCH_PAGES, PageCache
from repro.objstore.record import (
    ENC_DELTA,
    ENC_RAW,
    ENC_ZLIB,
    HEADER_SIZE,
    KIND_MANIFEST,
    KIND_META,
    KIND_PAGE,
    RecordHeader,
    decode,
    encode,
    pack_record,
    unpack_record,
)
from repro.objstore.snapshot import (
    DIR_SPILL_KEY,
    Manifest,
    MetaRef,
    PageRef,
    Snapshot,
    SnapshotDirectory,
    encode_manifest,
    parse_manifest,
)
from repro.objstore.walk import MediaWalk
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.fault.registry import FailpointRegistry
    from repro.mem.page import Page
    from repro.obs import KernelObs
    from repro.objstore.log import PersistentLog

#: reads of nearby extents are coalesced into one device op when the
#: gap between them is below this (restore-path sequential-read model)
READ_COALESCE_GAP = 64 * 1024

#: a coalesced write run is capped at this many bytes so one extent
#: never monopolizes the device channel (matches common MDTS limits)
MAX_BATCH_EXTENT = 256 * 1024

def _unpack_kind(raw: bytes, offset: int, expect_kind: int
                 ) -> tuple[RecordHeader, bytes]:
    """Unframe the record read at ``offset``, checking its kind."""
    header, payload = unpack_record(raw)
    if header.kind != expect_kind:
        raise ObjectStoreError(
            f"record kind {header.kind} at {offset}, expected {expect_kind}"
        )
    return header, payload


@dataclass
class StoreStats:
    meta_records_written: int = 0
    pages_written: int = 0
    pages_deduped: int = 0
    bytes_written: int = 0
    logical_page_bytes: int = 0
    snapshots_committed: int = 0
    snapshots_deleted: int = 0
    batches_flushed: int = 0
    batch_records: int = 0
    batch_extents: int = 0
    #: media bytes and flush shards (submission queues) the batch
    #: flushes covered
    batch_bytes: int = 0
    batch_shards: int = 0
    #: write-path codec outcomes (repro.objstore.codec)
    pages_compressed: int = 0
    pages_delta: int = 0
    encoded_bytes_saved: int = 0
    #: media footprint actually charged for page records vs. what the
    #: same pages would have cost stored raw — the write-amplification
    #: numerator/denominator for the compression-ratio gauge
    page_media_bytes: int = 0
    page_full_bytes: int = 0

    @property
    def compression_ratio_permille(self) -> int:
        """Page media bytes per 1000 raw bytes (0 before the first page)."""
        if not self.page_full_bytes:
            return 0
        return self.page_media_bytes * 1000 // self.page_full_bytes


@dataclass
class RecoveryReport:
    snapshots_recovered: int = 0
    snapshots_discarded: int = 0
    generation: int = 0
    errors: list[str] = field(default_factory=list)


class ObjectStore:
    """One object store on one backing device."""

    def __init__(self, device: StorageDevice, mem: Optional[MemContext] = None,
                 cache_bytes: Optional[int] = None):
        self.device = device
        self.volume = Volume(device)
        self.mem = mem
        #: restore-side LRU cache of decoded page content, keyed by
        #: content hash so dedup'd pages and delta bases share entries
        #: (``cache_bytes=0`` disables it: pure read-through)
        self.pagecache = PageCache(
            DEFAULT_PAGE_CACHE_BYTES if cache_bytes is None else cache_bytes
        )
        #: one allocation stripe / flush shard per device submission
        #: queue — the sharded batch flush submits each stripe's runs
        #: on its own queue so they drain in parallel
        self.num_shards = max(1, device.spec.num_queues)
        #: classify/encode policy for page records; arms itself with
        #: the device's queue model (legacy flat-latency stores keep
        #: writing byte-identical RAW records)
        self.codec = PageCodec(
            device.spec, mem.cpu if mem is not None else DEFAULT_CPU
        )
        self.stats = StoreStats()
        self.obs: Optional["KernelObs"] = None
        self._g_manifest_bytes = self._g_manifest_rows = self._g_manifest_lineage = None
        self._bytes_since_commit = 0
        #: failpoint plane (repro.fault); zero-cost while None or while
        #: nothing is armed (``faults.active`` is false)
        self.faults: Optional["FailpointRegistry"] = None
        #: volume generation covered by the last clean fsck verdict
        #: (set by repro.objstore.fsck; consulted by the sls_send gate)
        self._fsck_clean_generation: Optional[int] = None
        #: persistent logs carved out of this store, keyed by owner oid
        self._logs: dict[int, "PersistentLog"] = {}
        #: the live images' slot maps by content: equal maps are one
        #: object (repro.objstore.image)
        self.slot_maps = SlotMapTable()
        self._reset_index()

    def _reset_index(self, next_id: int = 1,
                     dir_spill: Optional[Extent] = None) -> None:
        """Empty in-memory bookkeeping: what a new store starts from and
        what a rebuild from media (:meth:`_rebuild`) refills."""
        self.allocator = ExtentAllocator(
            base=self.volume.data_base, size=self.volume.data_size,
            num_shards=self.num_shards,
        )
        self.allocator.faults = self.faults
        self.dedup = DedupIndex()
        self.directory = SnapshotDirectory(next_id=next_id)
        #: where every data record waits for the next flush; a rebuild
        #: drops what was staged with the rest of the in-memory state
        self.batch = WriteBatch(self)
        #: metadata/manifest record refcounts keyed by extent offset
        self._meta_refs: dict[int, tuple[Extent, int]] = {}
        #: dead extents a superblock slot may still name, each with the
        #: superblocks to submit before neither A/B slot does (two when
        #: it dies: the next orphans it, the one after replaces the
        #: older slot) and the last one's completion time
        self.garbage: dict[Extent, tuple[int, int]] = {}
        #: live spilled-directory record, when the snapshot directory
        #: no longer fits the superblock slot (fleet-scale stores)
        self._dir_spill = dir_spill

    def attach_obs(self, obs: "KernelObs") -> None:
        """Adopt a kernel's observability plane.  The counters and the
        compression-ratio gauge are views of :class:`StoreStats`; only
        the last manifest's shape, which the stats do not keep, is
        pushed (at commit)."""
        self.obs = obs
        reg, stats = obs.registry, self.stats
        store = self.device.name
        reg.counter(obs_names.C_STORE_PAGES_WRITTEN,
                    attr_reader(stats, "pages_written"), store=store)
        reg.counter(obs_names.C_STORE_PAGES_DEDUPED,
                    attr_reader(stats, "pages_deduped"), store=store)
        reg.counter(obs_names.C_STORE_META_RECORDS,
                    attr_reader(stats, "meta_records_written"), store=store)
        reg.counter(obs_names.C_STORE_BYTES_WRITTEN,
                    attr_reader(stats, "bytes_written"), store=store)
        reg.counter(obs_names.C_STORE_SNAPSHOTS,
                    attr_reader(stats, "snapshots_committed"), store=store)
        reg.counter(obs_names.C_STORE_SNAPSHOTS_DELETED,
                    attr_reader(stats, "snapshots_deleted"), store=store)
        reg.counter(obs_names.C_STORE_BATCHES,
                    attr_reader(stats, "batches_flushed"), store=store)
        reg.counter(obs_names.C_STORE_BATCH_RECORDS,
                    attr_reader(stats, "batch_records"), store=store)
        reg.counter(obs_names.C_STORE_PAGES_COMPRESSED,
                    attr_reader(stats, "pages_compressed"), store=store)
        reg.counter(obs_names.C_STORE_PAGES_DELTA,
                    attr_reader(stats, "pages_delta"), store=store)
        reg.counter(obs_names.C_STORE_ENCODED_BYTES_SAVED,
                    attr_reader(stats, "encoded_bytes_saved"), store=store)
        reg.gauge(obs_names.G_STORE_COMPRESSION_RATIO,
                  attr_reader(stats, "compression_ratio_permille"), store=store)
        self._g_manifest_bytes = reg.gauge(obs_names.G_STORE_MANIFEST_BYTES, store=store)
        self._g_manifest_rows = reg.gauge(obs_names.G_STORE_MANIFEST_PAGE_ROWS, store=store)
        self._g_manifest_lineage = reg.gauge(obs_names.G_STORE_MANIFEST_LINEAGE, store=store)
        self.pagecache.attach_obs(reg, store=store)

    def attach_faults(self, registry: "FailpointRegistry") -> None:
        """Adopt a machine's failpoint registry for the store, its
        allocator, and its backing device (see FAULTS.md)."""
        self.faults = registry
        self.allocator.faults = registry
        self.device.attach_faults(registry)

    # -- persistent logs ---------------------------------------------------------

    def register_log(self, log: "PersistentLog") -> None:
        """Index a persistent log by its owner oid (``find_log``)."""
        self._logs[log.owner_oid] = log

    def find_log(self, owner_oid: int) -> Optional["PersistentLog"]:
        """The live persistent log owned by ``owner_oid``, if any.

        A fresh :class:`~repro.core.api.AuroraApi` (e.g. rebuilt after
        a restore) locates the group's existing log here instead of
        pretending the log is empty.
        """
        return self._logs.get(owner_oid)

    # -- internals -------------------------------------------------------------

    def _charge(self, ns: float) -> None:
        if self.mem is not None:
            self.mem.charge(ns)

    def _now(self) -> int:
        return self.device.clock.now

    def _failpoint(self, name: str, fail_msg: str, **labels) -> None:
        """The store layer's one failpoint gate (see FAULTS.md): fire
        ``name`` and turn an armed ``fail`` into an
        :class:`ObjectStoreError`; the action's own ``reason`` wins over
        the site's default message.  Call sites guard it with
        ``faults is not None and faults.active`` (anything armed), so a
        disarmed store makes no call and builds neither labels nor
        messages.  ``sls lint`` reads a call to this method as a fire
        site of the constant it names."""
        action = self.faults.fire(name, **labels)
        if action is not None and action.kind == "fail":
            raise ObjectStoreError(action.reason or fail_msg)

    def _stage_record(self, kind: int, oid: int, epoch: int, payload: bytes,
                      logical: Optional[int] = None, flags: int = 0) -> Extent:
        """A data record (page, metadata), in one step: take the next
        allocator stripe round-robin (every flush restarts the rotation
        at stripe 0, so each submission queue gets a similar share),
        pack, allocate there and stage it in the batch with the stripe
        it landed in — its flush shard."""
        faults = self.faults
        if faults is not None and faults.active:
            self._failpoint(fault_names.FP_STORE_WRITE_RECORD, "injected record-write failure",
                            store=self.device.name, kind=kind)
        batch = self.batch
        shard = batch.rotation
        batch.rotation = (shard + 1) % self.num_shards
        record = pack_record(kind, oid, epoch, payload, flags)
        allocator = self.allocator
        extent = allocator.allocate(len(record), shard)
        bounds = allocator.shard_bounds
        if not bounds[shard] <= extent.offset < bounds[shard + 1]:
            shard = allocator.shard_of(extent.offset)  # the stripe was full
        size = max(len(record), logical or 0)
        self.stats.bytes_written += size
        self._bytes_since_commit += size
        batch.staged[extent.offset] = (extent, record, size, shard)
        return extent

    def _write_record(self, kind: int, epoch: int, payload: bytes) -> Extent:
        """A commit-tail record (manifest, spilled directory): one
        command on queue 0, issued after the batch was flushed."""
        if self.faults is not None and self.faults.active:
            self._failpoint(fault_names.FP_STORE_WRITE_RECORD, "injected record-write failure",
                            store=self.device.name, kind=kind)
        record = pack_record(kind, 0, epoch, payload)
        extent = self.allocator.allocate(len(record))
        self.stats.bytes_written += len(record)
        self._bytes_since_commit += len(record)
        self.volume.write_data(extent.offset, record)
        return extent

    def _read_record(self, extent: Extent, expect_kind: int,
                     logical: Optional[int] = None
                     ) -> tuple[RecordHeader, bytes]:
        if extent.offset in self.batch.staged:
            self.batch.flush()  # read-your-writes
        raw = self.volume.read_data(extent.offset, extent.length, logical=logical)
        return _unpack_kind(raw, extent.offset, expect_kind)

    # -- metadata records -----------------------------------------------------------

    def write_meta(self, oid: int, value, epoch: int = 0) -> MetaRef:
        """Serialize ``value`` as the metadata record for kernel object ``oid``."""
        extent = self._stage_record(KIND_META, oid, epoch, encode(value))
        self.stats.meta_records_written += 1
        return MetaRef(oid=oid, extent=extent)

    def read_meta_payload(self, ref: MetaRef) -> bytes:
        """The metadata record's payload, verified — checksum, kind and
        oid checked — but not decoded."""
        header, payload = self._read_record(ref.extent, KIND_META)
        if header.oid != ref.oid:
            raise ObjectStoreError(f"oid mismatch: {header.oid} != {ref.oid}")
        return payload

    def read_meta(self, ref: MetaRef):
        return decode(self.read_meta_payload(ref))

    # -- page data ---------------------------------------------------------------------

    @staticmethod
    def page_hash(payload: bytes) -> bytes:
        return hashlib.sha1(payload.rstrip(b"\x00")).digest()

    def write_page(self, payload: bytes, epoch: int = 0,
                   content_hash: Optional[bytes] = None, *,
                   delta_base: Optional[bytes] = None,
                   dirty_extents=None) -> PageRef:
        """Store page content, deduplicating by hash: every write of
        stored content returns the one :class:`PageRef` the index holds
        for it.

        ``delta_base``/``dirty_extents`` are the COW layer's hints for
        the codec: the content hash of the checkpointed ancestor this
        page diverged from and the byte ranges written since.  When the
        base is still resolvable in the store and the dirty footprint
        is small, the page persists as a sub-page delta record instead
        of a full page.  A page whose content still equals its base
        (zero-length delta) simply dedups against it — nothing is
        written at all.
        """
        if content_hash is None:
            self._charge(self.mem.cpu.page_hash_ns if self.mem else 0)
            content_hash = self.page_hash(payload)
        self.stats.logical_page_bytes += max(len(payload), 1)
        entry = self.dedup.get(content_hash)
        if entry is not None:
            self.stats.pages_deduped += 1
            return entry.ref
        return self._store_page(payload, epoch, content_hash, delta_base, dirty_extents)

    def write_run(self, pages: Sequence["Page"], epoch: int) -> list[PageRef]:
        """:meth:`write_page` each frame of a captured run, in order,
        with its content hash and the COW layer's delta hints; returns
        their refs.  One dedup probe per page; each miss is stored just
        as :meth:`write_page` stores it."""
        refs = []
        logical = hits = 0
        probe = self.dedup.get
        try:
            for page in pages:
                payload = page.payload
                logical += len(payload) or 1
                content_hash = page.content_hash()
                entry = probe(content_hash)
                if entry is not None:
                    hits += 1
                    refs.append(entry.ref)
                else:
                    refs.append(self._store_page(
                        payload, epoch, content_hash, page.base_hash, page.dirty_extents
                    ))
        finally:  # a failed miss leaves the stats a page loop would
            self.stats.logical_page_bytes += logical
            self.stats.pages_deduped += hits
        return refs

    def _store_page(self, payload: bytes, epoch: int, content_hash: bytes,
                    delta_base: Optional[bytes], dirty_extents) -> PageRef:
        """Encode, place and index content the dedup index lacks."""
        codec = self.codec
        base_hash = None
        base_depth = 0
        if codec.enabled and delta_base is not None and delta_base != content_hash:
            base = self.dedup.get(delta_base)
            if base is not None:
                base_hash, base_depth = delta_base, base.ref.depth
        plan = codec.plan(
            payload, base_hash=base_hash, base_depth=base_depth,
            dirty_extents=dirty_extents,
        )
        flags = plan.flags
        if plan.cpu_ns:
            self._charge(plan.cpu_ns)
        faults = self.faults
        if flags != ENC_RAW and faults is not None and faults.active:
            fp = (fault_names.FP_STORE_WRITE_DELTA if flags == ENC_DELTA
                  else fault_names.FP_STORE_WRITE_COMPRESSED)
            self._failpoint(
                fp, "injected encoded-page write failure",
                store=self.device.name, saved=plan.bytes_saved,
            )
        media_bytes = plan.media_bytes
        extent = self._stage_record(
            KIND_PAGE, 0, epoch, plan.stored, logical=media_bytes, flags=flags,
        )
        ref = PageRef(content_hash, extent, len(payload), flags, plan.depth)
        self.dedup.insert(ref, media_bytes=media_bytes, base_hash=plan.base_hash)
        stats = self.stats
        stats.pages_written += 1
        stats.page_full_bytes += HEADER_SIZE + PAGE_SIZE
        stats.page_media_bytes += media_bytes
        if flags != ENC_RAW:
            if flags == ENC_ZLIB:
                stats.pages_compressed += 1
            else:
                stats.pages_delta += 1
            stats.encoded_bytes_saved += plan.bytes_saved
        return ref

    def read_page(self, ref: PageRef) -> bytes:
        cached = self.pagecache.get(ref.content_hash)
        if cached is not None:
            # Serving from cache still copies the page out of the
            # cache buffer; only the device round-trip is skipped.
            self._charge(self.mem.cpu.page_copy_ns if self.mem else 0)
            return cached
        header, stored = self._read_record(
            ref.extent, KIND_PAGE, logical=HEADER_SIZE + PAGE_SIZE
        )
        return self._page_content(
            ref.content_hash,
            {ref.content_hash: (header.flags, stored, header.checksum)}, {},
        )

    def _page_content(self, content_hash: bytes,
                      stash: dict[bytes, tuple[int, bytes, int]],
                      resolved: dict[bytes, bytes], *,
                      verify: bool = False, fetch: bool = True,
                      _depth: int = 0) -> bytes:
        """Decoded content of page ``content_hash`` — the *single*
        depth-bounded delta-base resolver, decode and cache-fill point
        of every page-read path (point reads, coalesced bulk reads,
        scrub, the media walker).

        ``stash`` holds ``(flags, stored payload, header checksum)`` of
        records the caller already fetched and verified; ``resolved`` memoizes
        decoded content across one bulk operation.  A hash in neither
        is served from the page cache or point-read through the dedup
        index — unless ``fetch=False``: the media walker resolves only
        against records it verified itself, so anything else is a
        broken base (and, like the rest of recovery, it models no
        decode CPU).

        Outside ``verify`` mode a record is decoded once per dedup
        entry, not once per read: a record that verified with the
        header checksum of the one the entry's host copy
        (:attr:`~repro.objstore.dedup.DedupEntry.content`) was decoded
        from (:attr:`~repro.objstore.dedup.DedupEntry.decoded_from`) is
        that record, and is answered with the copy.  The checksum is
        the key because it is the check that already makes a read
        trusted: it covers every header byte and the payload, so any
        other record — damaged, rewritten or misdirected — decodes as
        before.  A delta also walks its chain as a decode would, and
        is decoded again unless its base resolves to the very content
        object it patched.  Everything else a decode does stays: the
        device read, the record checks, the sim charge, the chain-depth
        bound, the base's reads and cache traffic and the cache fill.
        A decode that compares equal to the entry's copy is replaced by
        it, and any other becomes it: the page cache bounds *simulated*
        residency, the entry bounds host copies to one per live record.

        ``verify=True`` (scrub, the walker) bypasses the page cache and
        the entry's copy entirely — a clean copy must never mask
        on-media damage — and checks every decoded page, bases
        included, against its content hash.  Any failure beneath a
        delta surfaces on the delta as
        :class:`~repro.objstore.codec.BrokenDeltaBase`.  The chain-depth
        bound is checked once, inside
        :meth:`~repro.objstore.codec.PageCodec.decode_page` (or before a
        known delta's base is walked).
        """
        content = resolved.get(content_hash)
        if content is not None:
            return content
        record = stash.get(content_hash)
        if record is None:
            if not fetch:
                raise BrokenDeltaBase(content_hash)
            if not verify:
                content = self.pagecache.get(content_hash)
                if content is not None:
                    resolved[content_hash] = content
                    return content
            entry = self.dedup.get(content_hash)
            if entry is None:
                raise ObjectStoreError(
                    f"page {content_hash.hex()} not in store"
                )
            header, stored = self._read_record(
                entry.extent, KIND_PAGE, logical=HEADER_SIZE + PAGE_SIZE
            )
            record = header.flags, stored, header.checksum
        flags, stored, checksum = record
        entry = None if verify else self.dedup.get(content_hash)
        known = entry.decoded_from if entry is not None else None
        if known is not None and known.checksum != checksum:
            known = None
        if fetch and flags == ENC_ZLIB:
            self._charge(self.codec.cpu.page_decompress_ns)
        elif fetch and flags == ENC_DELTA:
            self._charge(self.codec.cpu.delta_apply_ns)
        patched: tuple[bytes, bytes] | None = None

        def resolve_base(base_hash: bytes) -> bytes:
            nonlocal patched
            try:
                base = self._page_content(
                    base_hash, stash, resolved,
                    verify=verify, fetch=fetch, _depth=_depth + 1,
                )
            except (DeltaChainTooDeep, BrokenDeltaBase):
                raise
            except ObjectStoreError as exc:
                raise BrokenDeltaBase(base_hash) from exc
            patched = base_hash, base
            return base

        if known is not None and flags == ENC_DELTA:
            if _depth >= MAX_DELTA_CHAIN:
                raise DeltaChainTooDeep(
                    f"delta chain deeper than {MAX_DELTA_CHAIN}"
                )
            if resolve_base(known.base_hash) is not known.base:
                known = None
        if known is not None:
            content = entry.content
        elif flags == ENC_RAW:
            content = stored
        else:
            content = self.codec.decode_page(
                flags, stored, resolve_base, _depth=_depth
            )
        if verify:
            if self.page_hash(content) != content_hash:
                raise ChecksumError("page content hash mismatch")
        else:
            if entry is not None and known is None:
                if content == entry.content:
                    content = entry.content
                else:
                    entry.content = content
                entry.decoded_from = DecodedFrom(checksum, *(patched or ()))
            self.pagecache.put(content_hash, content)
        resolved[content_hash] = content
        return content

    def read_pages_coalesced(self, refs: list[PageRef], *,
                             _accounted: bool = True) -> dict[bytes, bytes]:
        """Bulk-read page refs with sequential-run coalescing.

        Restores read whole checkpoint images; sorting the extents and
        merging near-adjacent ones models the large sequential reads
        the real store issues (one device op per run instead of one
        per page).  The runs are fanned out round-robin across the
        device's submission queues and the clock advances once to the
        slowest completion, so on a multi-queue device a restore's
        transfers overlap the same way the sharded flush's do.

        Refs whose content is already cached are served without any
        device op; only the misses build runs.  The delta bases those
        records need that this read has neither fetched nor decoded and
        the page cache lacks are read the same way, in *waves*:
        a wave's records name the bases of the next, so at most
        :data:`~repro.objstore.codec.MAX_DELTA_CHAIN` waves follow the
        first and decoding makes no point read.  ``_accounted=False``
        (the prefetch path) keeps the lookups of ``refs`` out of the
        demand hit/miss accounting; a base's lookup counts, as a
        point read's does.  Returns hash -> payload.
        """
        if not refs:
            return {}
        wanted: dict[bytes, PageRef] = {}
        for ref in refs:
            wanted.setdefault(ref.content_hash, ref)
        resolved: dict[bytes, bytes] = {}
        missing: list[PageRef] = []
        cache = self.pagecache
        found = (cache.get_many(list(wanted)) if _accounted
                 else map(cache.peek, wanted))
        for (content_hash, ref), cached in zip(wanted.items(), found):
            if cached is not None:
                resolved[content_hash] = cached
            else:
                missing.append(ref)
        if not missing:
            return resolved
        stash: dict[bytes, tuple[int, bytes, int]] = {}
        self._read_wave(missing, stash, bases=False)
        wave = missing
        for _ in range(MAX_DELTA_CHAIN):
            wave = self._uncached_bases(wave, stash, resolved)
            if not wave:
                break
            self._read_wave(wave, stash, bases=True)
        # Decode pass: the waves fetched every chain the requested
        # records name (commit expansion keeps their bases in the store
        # even when the image maps none of them), so no point read but
        # of a damaged base, which then fails on its delta.
        for ref in missing:
            self._page_content(ref.content_hash, stash, resolved)
        return resolved

    def _read_wave(self, refs: list[PageRef],
                   stash: dict[bytes, tuple[int, bytes, int]], *,
                   bases: bool) -> None:
        """Read the page records of ``refs`` into ``stash`` as
        ``(flags, payload, checksum)``: extents sorted and merged into runs across
        gaps up to :data:`READ_COALESCE_GAP`, the runs fanned
        round-robin over the submission queues, the clock advanced
        once, to the slowest completion.  A damaged record raises as
        :meth:`_read_record` would — unless it is a wave of delta
        ``bases``: it is then left out, and the decode's point read of
        it fails on the delta as
        :class:`~repro.objstore.codec.BrokenDeltaBase`."""
        staged = self.batch.staged
        if staged and any(r.extent.offset in staged for r in refs):
            self.batch.flush()  # read-your-writes
        ordered = sorted(refs, key=lambda r: r.extent.offset)
        runs: list[list[PageRef]] = [[ordered[0]]]
        run_end = ordered[0].extent.end
        for ref in ordered[1:]:
            if ref.extent.offset - run_end <= READ_COALESCE_GAP:
                run_end = max(run_end, ref.extent.end)
                runs[-1].append(ref)
            else:
                runs.append([ref])
                run_end = ref.extent.end
        deadline = self.device.clock.now
        nq = self.device.num_queues
        for i, run_refs in enumerate(runs):
            run_start = run_refs[0].extent.offset
            length = max(r.extent.end for r in run_refs) - run_start
            logical = len(run_refs) * (HEADER_SIZE + PAGE_SIZE)
            ticket, raw = self.volume.read_data_async(
                run_start, length, logical=logical, queue=i % nq
            )
            deadline = max(deadline, ticket.completes_at)
            for ref in run_refs:
                rel = ref.extent.offset - run_start
                try:
                    header, payload = _unpack_kind(
                        raw[rel : rel + ref.extent.length],
                        ref.extent.offset, KIND_PAGE,
                    )
                except ObjectStoreError:
                    if not bases:
                        raise
                    continue
                stash[ref.content_hash] = (header.flags, payload, header.checksum)
        self.device.clock.advance_to(deadline)

    def _uncached_bases(self, refs: list[PageRef],
                        stash: dict[bytes, tuple[int, bytes, int]],
                        resolved: dict[bytes, bytes]) -> list[PageRef]:
        """The next wave: refs of the bases the delta records of
        ``refs`` patch, less those ``stash`` or ``resolved`` holds.
        A record its dedup entry's copy was decoded from names its base
        there; any other is parsed.  Each base is looked up in the page
        cache as :meth:`_page_content` would before a point read — a
        hit lands in ``resolved``.  A record missing from ``stash``
        (damaged), or a base its record or the dedup index cannot name,
        is left for the decode to report."""
        dedup = self.dedup
        bases: dict[bytes, PageRef] = {}
        for ref in refs:
            record = stash.get(ref.content_hash)
            if record is None or record[0] != ENC_DELTA:
                continue
            entry = dedup.get(ref.content_hash)
            known = entry.decoded_from if entry is not None else None
            if known is not None and known.checksum == record[2]:
                base = known.base_hash
            else:
                try:
                    base = delta_info(record[1])[0]
                except ChecksumError:
                    continue
            if base in stash or base in resolved or base in bases:
                continue
            entry = dedup.get(base)
            if entry is None:
                continue
            content = self.pagecache.get(base)
            if content is not None:
                resolved[base] = content
            else:
                bases[base] = entry.ref
        return list(bases.values())

    def prefetch_pages(self, refs: list[PageRef]) -> int:
        """Warm the page cache with ``refs``, preserving their order.

        The recorded-fault-order replay path: refs are taken in the
        given (fault) order, deduped by content hash, filtered to what
        the cache does not already hold, and read in coalesced batches
        — each batch fanning its runs round-robin across the device's
        submission queues — so the faulting workload behind the
        prefetch stream hits cache instead of the device.  The warm-up
        lookups are deliberate, not demand, so they stay out of the
        hit/miss accounting.  No-op (returns 0) when the cache is
        disabled.  Returns how many pages were read in.
        """
        if not self.pagecache.enabled:
            return 0
        pending: dict[bytes, PageRef] = {}
        for ref in refs:
            if (ref.content_hash not in pending
                    and self.pagecache.peek(ref.content_hash) is None):
                pending[ref.content_hash] = ref
        ordered = list(pending.values())
        for start in range(0, len(ordered), PREFETCH_BATCH_PAGES):
            self.read_pages_coalesced(
                ordered[start:start + PREFETCH_BATCH_PAGES], _accounted=False
            )
        return len(ordered)

    # -- snapshots -----------------------------------------------------------------------

    def _write_directory(self) -> None:
        """Name the current snapshot directory: the store's one commit
        point and the only caller of ``Volume.write_superblock``.

        The write sequence is spelled here, once, so no caller can get
        it wrong: fire the failpoint, flush whatever the batch still
        stages (a no-op that fires nothing when the caller already
        flushed), then write the superblock, which the volume barriers
        behind everything in flight on every submission queue.  A
        superblock generation thus never names a record that is not yet
        durable.

        Small directories encode straight into the superblock slot.
        Once the encoded directory outgrows it — thousands of deployed
        serverless functions, one snapshot each — it *spills*: the
        directory is written as an ordinary metadata record in the data
        area and the superblock stores only a stub pointing at it.

        Garbage (the previous spill record, once this superblock is
        submitted) is named by the newest slot until a superblock
        orphans it, then by the older slot until the next one replaces
        it.  Once that one is durable no generation recovery can choose
        names it, even after a flip in the newest slot, and the next
        call frees it (:meth:`_reclaim_dead`): the one rule by which
        space is reused.
        """
        if self.faults is not None and self.faults.active:
            self._failpoint(
                fault_names.FP_STORE_WRITE_DIRECTORY,
                "injected directory-write failure",
                store=self.device.name, snapshots=len(self.directory.snapshots),
            )
        self._reclaim_dead()
        self.batch.flush()
        payload = self.directory.payload()
        spill = None
        if HEADER_SIZE + len(payload) > SUPERBLOCK_SLOT_SIZE:
            spill = self._write_record(KIND_META, 0, payload)
            payload = encode({DIR_SPILL_KEY: [spill.offset, spill.length]})
        durable_at = self.volume.write_superblock(payload).completes_at
        if self._dir_spill is not None:
            self._to_garbage(self._dir_spill)
        self._dir_spill = spill
        for extent, (left, _at) in self.garbage.items():
            if left:
                self.garbage[extent] = (left - 1, durable_at)

    def _to_garbage(self, extent: Extent) -> None:
        """Queue a dead extent; the next superblock orphans it."""
        self.garbage[extent] = (2, 0)

    def _reclaim_dead(self) -> list[Extent]:
        """Free and return the garbage no durable superblock slot names:
        the device forgets it and the allocator may hand it out again.
        Adjacent dead extents are merged first, so each run costs one
        discard and one free."""
        now = self._now()
        garbage = self.garbage
        dead = [extent for extent, (left, at) in garbage.items()
                if not left and at <= now]
        if not dead:
            return dead
        runs: list[list[int]] = []
        for extent in sorted(dead, key=attrgetter("offset")):
            del garbage[extent]
            if runs and runs[-1][1] == extent.offset:
                runs[-1][1] = extent.end
            else:
                runs.append([extent.offset, extent.end])
        for start, end in runs:
            self.volume.discard_data(start, end - start)
            self.allocator.free(Extent(start, end - start))
        if self.obs is not None:
            freed, store = sum(extent.length for extent in dead), self.device.name
            self.obs.registry.counter(obs_names.C_GC_EXTENTS_FREED, store=store).inc(len(dead))
            self.obs.registry.counter(obs_names.C_GC_BYTES_FREED, store=store).inc(freed)
            self.obs.tracer.event(obs_names.EV_GC_RECLAIM, store=store,
                                  extents=len(dead), bytes=freed)
        return dead

    def commit_snapshot(
        self,
        name: str,
        meta,
        records: list[MetaRef],
        pages: list[PageRef],
        epoch: int = 0,
        parent_id: Optional[int] = None,
        *,
        lineage: Sequence[Extent] = (),
        logical_bytes: Optional[int] = None,
    ) -> Snapshot:
        """Durably name a checkpoint consisting of ``records`` + ``pages``.

        An incremental lists only the pages it added, plus as
        ``lineage`` its ancestors' manifests (newest first) whose tables
        hold the rest of its image — whose ``logical_bytes`` it passes.
        :meth:`_write_directory` names the snapshot only after
        everything it lists is in flight ahead of the superblock.
        """
        # Not needed for safety (_write_directory flushes for itself):
        # flushing here pins the *submission order* — sharded data
        # records, then the manifest — that BENCH_4.json measures.
        self.batch.flush()
        # A snapshot listing a delta-encoded page must also pin the
        # chain of bases it reconstructs from: list them in the
        # manifest (taking dedup holds below) so deleting an older
        # snapshot can never free a base out from under a live delta.
        pages = self._with_delta_bases(pages)
        if any(extent.offset not in self._meta_refs for extent in lineage):
            raise ObjectStoreError(f"{name!r} lists a lineage manifest nothing holds")
        if self.faults is not None and self.faults.active:
            self._failpoint(
                fault_names.FP_STORE_COMMIT,
                f"injected commit failure for {name!r}",
                store=self.device.name, snapshot=name,
            )
        payload = encode_manifest(meta, records, pages, lineage)
        manifest_extent = self._write_record(KIND_MANIFEST, epoch, payload)
        snapshot = Snapshot(
            snap_id=self.directory.allocate_id(),
            name=name,
            epoch=epoch,
            created_at_ns=self._now(),
            manifest_extent=manifest_extent,
            parent_id=parent_id,
            delta_bytes=self._bytes_since_commit,
            logical_bytes=sum(p.length for p in pages) if logical_bytes is None else logical_bytes,
        )
        self._bytes_since_commit = 0
        self._take_references(snapshot, records, pages, lineage)
        self._write_directory()
        self.stats.snapshots_committed += 1
        if self.obs is not None:
            self._g_manifest_bytes.set(len(payload))
            self._g_manifest_rows.set(len(pages))
            self._g_manifest_lineage.set(len(lineage))
        return snapshot

    def _take_references(self, snapshot: Snapshot, records: list[MetaRef],
                         pages: list[PageRef],
                         lineage: Sequence[Extent] = ()) -> None:
        """Enter ``snapshot`` into the directory, counting one reference
        on its manifest and on every record and lineage manifest it
        lists (commit, recovery and fsck repair all name snapshots
        through here).  ``pages`` are the rows of the tables it brings
        to life — its own, at commit — held once per manifest."""
        for extent in [snapshot.manifest_extent, *[r.extent for r in records], *lineage]:
            extent, count = self._meta_refs.get(extent.offset, (extent, 0))
            self._meta_refs[extent.offset] = (extent, count + 1)
        self.dedup.hold_many(pages)
        self.directory.add(snapshot)

    def _with_delta_bases(self, pages: list[PageRef]) -> list[PageRef]:
        """The page rows a manifest listing ``pages`` holds: ``pages``
        themselves — every ref the store hands out (a write's, a
        parsed manifest row's) already carries its record's codec
        facts — then the transitive delta bases of every listed delta
        record that are not already listed.  Only delta records are
        looked up in the dedup index."""
        dedup = self.dedup
        deltas = [dedup.get(p.content_hash) for p in pages if p.depth]
        if not deltas:
            return pages
        out = list(pages)
        seen = {p.content_hash for p in out}
        while deltas:
            listed = deltas.pop()
            if listed is None:
                continue  # not stored: taking its reference will fail
            base = listed.base_hash or self._recovered_base(listed)
            if base in seen:
                continue
            entry = dedup.get(base)
            if entry is None:
                raise ObjectStoreError(f"delta base {base.hex()} missing at commit")
            out.append(entry.ref)
            seen.add(base)
            if entry.depth:
                deltas.append(entry)
        return out

    def _recovered_base(self, entry: DedupEntry) -> bytes:
        """The base hash of a delta page a rebuild indexed from its
        manifest row, which carries the chain depth but not the base:
        read and verify the record once and keep the hash in ``entry``."""
        header, stored = self._read_record(
            entry.extent, KIND_PAGE, logical=HEADER_SIZE + PAGE_SIZE
        )
        if header.flags != ENC_DELTA:
            raise ObjectStoreError(
                f"page record at {entry.extent.offset} is not the delta its "
                f"manifest row says"
            )
        entry.base_hash = delta_info(stored)[0]
        return entry.base_hash

    def read_manifest(self, extent: Extent) -> Manifest:
        return parse_manifest(self._read_record(extent, KIND_MANIFEST)[1])

    def load_manifest(self, snapshot: Snapshot) -> Manifest:
        return self.read_manifest(snapshot.manifest_extent)

    def delete_snapshot(self, snap_id: int) -> None:
        """Un-name a snapshot: one reference off its manifest and every
        record and lineage manifest it lists.  Only the manifests that
        just died — its own unless a descendant's lineage lists it, any
        ancestor's it was the last to list — have their rows walked."""
        snapshot = self.directory.get(snap_id)
        if snapshot is None:
            raise NoSuchObject(f"no snapshot {snap_id}")
        if self.faults is not None and self.faults.active:
            self._failpoint(
                fault_names.FP_STORE_DELETE,
                f"injected delete failure for {snapshot.name!r}",
                store=self.device.name, snapshot=snapshot.name,
            )
        manifest = self.load_manifest(snapshot)
        for ref in manifest.records:
            self._release_meta(ref.extent)
        dead = [self.read_manifest(extent).pages for extent in manifest.lineage
                if self._release_meta(extent)]
        if self._release_meta(snapshot.manifest_extent):
            dead.append(manifest.pages)
        release, garbage = self.dedup.release, self.garbage
        invalidate = self.pagecache.invalidate
        for table in dead:
            for content_hash, _offset, _extent_length, _length in table.rows():
                freed = release(content_hash)
                if freed is not None:
                    garbage[freed] = (2, 0)  # as _to_garbage
                    # The hash just left the store; a cached copy must
                    # not outlive the media extent (reclaim reuses it).
                    invalidate(content_hash)
        self.directory.remove(snap_id)
        self._write_directory()
        self.stats.snapshots_deleted += 1

    def _release_meta(self, extent: Extent) -> bool:
        """Drop one reference on a record or manifest; True when that
        was the last and its extent became garbage."""
        stored = self._meta_refs.get(extent.offset)
        if stored is None:
            raise NoSuchObject(f"no record reference at {extent.offset}")
        _, count = stored
        if count > 1:
            self._meta_refs[extent.offset] = (extent, count - 1)
            return False
        del self._meta_refs[extent.offset]
        self._to_garbage(extent)
        return True

    def snapshots(self) -> list[Snapshot]:
        return [self.directory.snapshots[s] for s in sorted(self.directory.snapshots)]

    def snapshot_by_name(self, name: str) -> Optional[Snapshot]:
        return self.directory.by_name(name)

    # -- durability & recovery ---------------------------------------------------------------

    def flush_barrier(self) -> int:
        """Block (advance time) until everything written — staged
        records included — is durable."""
        self.batch.flush()
        return self.volume.flush_barrier()

    def physical_bytes(self) -> int:
        """Bytes of live (referenced) data on the volume.

        Page records occupy a full page plus header on the medium
        (payloads are stored compactly in simulation; see
        ``logical_nbytes`` in the device model).
        """
        meta = sum(extent.length for extent, _ in self._meta_refs.values())
        pages = sum(
            entry.media_bytes or (HEADER_SIZE + PAGE_SIZE)
            for entry in self.dedup.entries().values()
        )
        return meta + pages

    def recover(self) -> RecoveryReport:
        """Rebuild in-memory state from the device after a crash.

        Reads metadata, not data.  Consumes the media walker's verdicts
        (:mod:`repro.objstore.walk`) for the newest valid superblock's
        snapshot directory, stopping each snapshot before its page
        rows: a snapshot is adopted when its manifest, its lineage's
        and every metadata record they list verify, and is discarded as
        a unit at the first verdict that does not.  No page record is
        read — the superblock barrier means a named snapshot's pages
        are durable, each manifest row carries what the dedup index
        needs, and a page that decayed on media fails its first read
        with :class:`ChecksumError` (fsck and scrub report and
        quarantine it; RECOVERY.md).  A superblock whose payload does
        not decode as a directory raises :class:`ObjectStoreError`.
        """
        report = RecoveryReport()
        walk = MediaWalk(self)
        directory = walk.directory()
        adopted = []
        if directory is not None:
            report.generation = walk.generation
            for snap_id in sorted(directory.snapshots):
                snapshot = directory.snapshots[snap_id]
                bad = next((v for v in walk.snapshot(snapshot, pages=False)
                            if not v.ok), None)
                if bad is None:
                    adopted.append(snapshot)
                    continue
                report.snapshots_discarded += 1
                report.errors.append(f"snapshot {snap_id} ({snapshot.name}): {bad.detail}")
        self._logs = {}
        self._rebuild(walk, directory.next_id if directory else 1, adopted)
        report.snapshots_recovered = len(adopted)
        return report

    def _rebuild(
        self, walk: MediaWalk, next_id: int, adopted: list[Snapshot],
        salvaged: list[tuple[list[MetaRef], list[PageRef]]] = (),
    ) -> None:
        """Rebuild allocator, dedup index (delta chains included),
        refcounts and directory from a media walk — the one
        construction recovery and fsck repair share.

        Each adopted snapshot (in id order) enters the directory with
        its references counted, every row of each table it reads
        through held once, by the first to reach it.  Each salvaged pair
        is refs fsck kept for quarantine: indexed and reserved but not
        yet held.  A page is indexed from its manifest row alone (its
        codec facts; a delta's base hash is read later, if a commit
        needs it — :meth:`_recovered_base`).  What a superblock slot
        names beyond that (a snapshot only the older slot lists, one
        recovery discarded, the older slot's spill) is reserved as
        garbage, reclaimed once no slot names it.  Whatever no slot
        names (orphans, a torn checkpoint, a table no survivor reads)
        is not reserved: that is the leak reclaim.  Touches only
        in-memory state.
        """
        # The spilled directory record is reachable from the superblock
        # (not from any snapshot): it stays reserved until a newer
        # superblock supersedes it, so later allocations can never
        # clobber the live directory.
        self._reset_index(next_id, walk.dir_spill)
        # In-memory truth is being rebuilt wholesale; drop every cached
        # page along with the rest of the old state.
        self.pagecache.clear()
        reserved: set[Extent] = set()

        def reserve(extent: Optional[Extent]) -> bool:
            if extent is None or extent in reserved:
                return False  # shared with an already-adopted snapshot
            reserved.add(extent)
            try:
                self.allocator.reserve(extent)
            except ValueError:
                # Overlaps bytes already reserved: the first claimant
                # keeps them (fsck's claims phase reports the overlap).
                return False
            return True

        def index(records: list[MetaRef], pages: list[PageRef]) -> None:
            for ref in records:
                reserve(ref.extent)
            for ref in pages:
                if self.dedup.get(ref.content_hash) is not None:
                    continue
                reserve(ref.extent)
                self.dedup.insert(
                    ref, media_bytes=(HEADER_SIZE + PAGE_SIZE if ref.flags == ENC_RAW
                                      else ref.extent.length),
                )

        reserve(walk.dir_spill)
        for log in self._logs.values():
            reserve(log.region)
        live: set[Extent] = set()
        for snapshot in adopted:
            tables = walk.view(snapshot)
            fresh = [table for table in tables if table.extent not in live]
            for table in fresh:
                live.add(table.extent)
                reserve(table.extent)
            manifest = tables[0].manifest
            pages = [ref for table in fresh for ref in table.manifest.pages]
            index(manifest.records, pages)
            self._take_references(snapshot, manifest.records, pages, manifest.lineage)
        for records, pages in salvaged:
            index(records, pages)
        held = {snapshot.snap_id for snapshot in adopted}
        for extent, left in walk.unadopted(held):
            if reserve(extent):
                self.garbage[extent] = (left, 0)


class WriteBatch:
    """The store's coalescing staging buffer for data records.

    :meth:`ObjectStore.write_page` and :meth:`ObjectStore.write_meta`
    allocate an extent and take dedup hits at once, but the record's
    bytes wait here; :meth:`flush` sorts the staged extents, merges
    contiguous runs into multi-page extents (capped at
    :data:`MAX_BATCH_EXTENT`), and submits each shard's set through one
    device doorbell (:meth:`~repro.hw.device.StorageDevice.write_batch`).

    Because each allocator stripe hands out extents next-fit, a
    checkpoint's freshly written records are almost always adjacent — a batch of N
    page records typically flushes as a handful of large extents
    instead of N tiny commands.

    Crash safety: :meth:`ObjectStore._write_directory` flushes before
    it writes the superblock, so the recovery invariant — a crash can
    only tear the not-yet-named snapshot — holds.  Failpoint
    ``objstore.batch.flush`` fires at the batch boundary before any
    bytes are submitted.
    """

    def __init__(self, store: ObjectStore):
        self.store = store
        #: staged (extent, packed record, media size, flush shard) by
        #: extent offset (:meth:`ObjectStore._stage_record` fills it):
        #: an extent whose offset is here is not on media yet
        self.staged: dict[int, tuple[Extent, bytes, int, int]] = {}
        #: the allocator stripe the next staged record asks for; every
        #: flush restarts the rotation at stripe 0
        self.rotation = 0
        self.last_tickets: list[IoTicket] = []

    def __len__(self) -> int:
        return len(self.staged)

    @property
    def pending_bytes(self) -> int:
        return sum(item[2] for item in self.staged.values())

    # -- flushing ---------------------------------------------------------------

    def flush(self) -> list[IoTicket]:
        """Coalesce and submit everything buffered; returns tickets.

        The buffered extents are grouped by allocator shard and each
        shard's coalesced runs go out through their own doorbell on
        the matching submission queue, so on a multi-queue device the
        shards drain in parallel.  The clock only advances by the
        submission model's costs (one doorbell per shard plus any
        queue-slot stalls); durability is reached at the returned
        tickets' ``completes_at`` deadlines, observed by the
        ``objstore.batch.flush`` span closing out-of-order there.

        Failpoint ``objstore.batch.flush`` fires once before anything
        is submitted; ``objstore.batch.shard_flush`` fires before each
        shard's doorbell — a ``fail`` there leaves the earlier shards
        submitted and the rest not, and no superblock names the
        half-flushed checkpoint.
        """
        store = self.store
        if not self.staged:
            return []
        if store.faults is not None and store.faults.active:
            store._failpoint(
                fault_names.FP_STORE_BATCH_FLUSH,
                "injected batch-flush failure",
                store=store.device.name, records=len(self.staged),
            )
        staged = self.staged
        items = [staged[offset] for offset in sorted(staged)]
        self.staged = {}
        self.rotation = 0
        by_shard: dict[int, list[tuple[Extent, bytes, int, int]]] = {}
        for item in items:
            by_shard.setdefault(item[3], []).append(item)

        def coalesce(shard_items: list[tuple[Extent, bytes, int, int]]) -> list[BatchWrite]:
            writes: list[BatchWrite] = []
            records: list[bytes] = []
            start = end = run_bytes = 0
            for extent, record, logical, _shard in shard_items:
                # The cap bounds the *on-media* (logical) size of one
                # coalesced command, matching how MDTS limits a transfer.
                if (records and extent.offset == end
                        and run_bytes + logical <= MAX_BATCH_EXTENT):
                    records.append(record)
                    run_bytes += logical
                else:
                    if records:
                        writes.append(BatchWrite(start, b"".join(records), run_bytes))
                    start, records, run_bytes = extent.offset, [record], logical
                end = extent.offset + extent.length
            writes.append(BatchWrite(start, b"".join(records), run_bytes))
            return writes

        span = None
        if store.obs is not None:
            span = store.obs.tracer.span(
                obs_names.SPAN_STORE_BATCH,
                store=store.device.name,
                records=len(items), shards=len(by_shard),
            )
        tickets: list[IoTicket] = []
        total_extents = 0
        for shard in sorted(by_shard):
            shard_items = by_shard[shard]
            if store.faults is not None and store.faults.active:
                store._failpoint(
                    fault_names.FP_STORE_SHARD_FLUSH,
                    f"injected shard {shard} flush failure",
                    store=store.device.name, shard=shard,
                    records=len(shard_items),
                )
            writes = coalesce(shard_items)
            total_extents += len(writes)
            if store.obs is not None:
                span.event(
                    obs_names.EV_BATCH_SUBMIT,
                    shard=shard, records=len(shard_items), extents=len(writes),
                )
            tickets.extend(store.volume.write_data_batch(writes, queue=shard))
        total_logical = sum([item[2] for item in items])
        self.last_tickets = tickets
        stats = store.stats
        stats.batches_flushed += 1
        stats.batch_records += len(items)
        stats.batch_extents += total_extents
        stats.batch_bytes += total_logical
        stats.batch_shards += len(by_shard)
        if store.obs is not None:
            span.set(bytes=total_logical, extents=total_extents)
            span.close(at_ns=max(t.completes_at for t in tickets))
        return tickets
