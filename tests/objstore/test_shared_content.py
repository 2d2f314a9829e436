"""A live page record's decoded content exists once on the host, and
is decoded once per store, not once per read.

The page cache bounds *simulated* residency; the dedup entry bounds
host copies and decodes.  A cache miss that reads the very record the
entry's copy was decoded from — the same header checksum, the check
that already makes a read trusted — is answered with that copy without
decoding again; a delta also needs its base to resolve to the content
object it patched.  Any other record decodes, and a decode equal to the
copy hands the copy out, so every world restored from one image shares
the same bytes.  The device read, the record checks and the simulated
decode CPU stay on every miss.  The copy lives and dies with its entry,
and the checked paths (scrub, the media walker, fsck) never read or
set it.
"""

import random
import tracemalloc
import zlib
from collections import Counter
from dataclasses import replace

import pytest

from repro.cli.recovery import build_demo_store, inject
from repro.core.backends import DiskBackend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.errors import ChecksumError
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P
from repro.objstore import ObjectStore, Scrubber
from repro.objstore.fsck import check_store, repair_store
from repro.objstore.image import read_image
from repro.objstore.record import (
    ENC_DELTA,
    ENC_RAW,
    ENC_ZLIB,
    KIND_PAGE,
    pack_record,
    unpack_record,
)
from repro.objstore.walk import MediaWalk
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.sim.clock import SimClock
from repro.units import GIB, PAGE_SIZE

PAGES = 256


def image_world(cache_bytes: int):
    """A store holding one checkpoint of a ``PAGES``-page heap of
    incompressible pages; returns the writer's kernel, the store, the
    snapshot and the heap's start address."""
    kernel = Kernel(hostname="writer", memory_bytes=1 * GIB)
    store = ObjectStore(NvmeDevice(kernel.clock), mem=kernel.mem,
                        cache_bytes=cache_bytes)
    backend = DiskBackend("disk0", store)
    backend.bind(kernel)
    rng = random.Random(43)
    heap_pages = [rng.randbytes(PAGE_SIZE) for _ in range(PAGES)]
    sysc = Syscalls(kernel, kernel.spawn("app"))
    heap = sysc.mmap(PAGES * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, PAGES * PAGE_SIZE, fill_fn=heap_pages.__getitem__)
    sls = SLS(kernel)
    group = sls.persist(sysc.proc, name="app")
    group.attach(backend)
    sls.checkpoint(group, name="full")
    sls.barrier(group)
    return kernel, store, store.snapshot_by_name("full"), heap.start


def mixed_world(cache_bytes: int):
    """A codec-armed store holding a full checkpoint of a ``PAGES``-page
    heap — odd pages incompressible (RAW records), even pages a repeated
    pattern (ZLIB) — and an incremental that pokes 16 bytes into every
    third page (DELTA records over the full's); returns the writer's
    kernel, the store, the incremental and the heap's start."""
    kernel = Kernel(hostname="writer", memory_bytes=1 * GIB)
    store = ObjectStore(NvmeDevice(kernel.clock, queue_depth=8), mem=kernel.mem,
                        cache_bytes=cache_bytes)
    backend = DiskBackend("disk0", store)
    backend.bind(kernel)
    rng = random.Random(48)
    heap_pages = [rng.randbytes(PAGE_SIZE) if i % 2
                  else rng.randbytes(64) * (PAGE_SIZE // 64) for i in range(PAGES)]
    sysc = Syscalls(kernel, kernel.spawn("app"))
    heap = sysc.mmap(PAGES * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, PAGES * PAGE_SIZE, fill_fn=heap_pages.__getitem__)
    sls = SLS(kernel)
    group = sls.persist(sysc.proc, name="app")
    group.attach(backend)
    sls.checkpoint(group, name="full")
    sls.barrier(group)
    for page in range(0, PAGES, 3):
        sysc.poke(heap.start + page * PAGE_SIZE + 100, rng.randbytes(16))
    sls.checkpoint(group, name="incr")
    sls.barrier(group)
    flags = Counter(e.flags for e in store.dedup.entries().values())
    assert flags[ENC_RAW] and flags[ENC_ZLIB] and flags[ENC_DELTA], flags
    return kernel, store, store.snapshot_by_name("incr"), heap.start


def count_decodes(store) -> Counter:
    """Count ``store``'s calls of ``PageCodec.decode_page`` from now on,
    per stored record payload."""
    decodes: Counter = Counter()
    decode = store.codec.decode_page

    def counting(flags, stored, resolve_base, _depth=0):
        decodes[stored] += 1
        return decode(flags, stored, resolve_base, _depth=_depth)

    store.codec.decode_page = counting
    return decodes


def image_refs(store, snapshot):
    """Every page ref ``snapshot``'s image maps, one per content."""
    _meta, maps = read_image(store, snapshot)
    return list({ref.content_hash: ref for slots in maps.values()
                 for ref in slots.values()}.values())


def restore_fresh(kernel, store, snapshot, label, **kwargs):
    """Restore the snapshot into a new kernel on the writer's clock;
    returns that kernel (which keeps the world alive) and the process."""
    fresh = Kernel(hostname=label, memory_bytes=1 * GIB, clock=kernel.clock)
    image = load_image_from_store(store, snapshot, "disk0")
    procs, _ = SLS(fresh).restore(image, backend_name="disk0", store=store,
                                  **kwargs)
    return fresh, procs[0]


def heap_payloads(proc) -> list[bytes]:
    entry = next(e for e in proc.aspace.entries if e.name == "heap")
    return [entry.obj.lookup(entry.offset_pages + i)[0].payload
            for i in range(PAGES)]


class TestRestoredWorldsShare:
    def test_eager_restores_share_payload_objects(self):
        kernel, store, snapshot, heap = image_world(cache_bytes=0)
        _k1, first = restore_fresh(kernel, store, snapshot, "a")
        _k2, second = restore_fresh(kernel, store, snapshot, "b")
        a, b = heap_payloads(first), heap_payloads(second)
        assert all(x is y for x, y in zip(a, b))
        # the shared bytes are the entry's copy of the right content
        for payload in a[:8]:
            assert store.dedup.get(store.page_hash(payload)).content is payload

        # a lazy fault in a third world is served the same object
        k3, lazy = restore_fresh(kernel, store, snapshot, "c",
                                 lazy=True, prefetch="off")
        faulted = Syscalls(k3, lazy).peek(heap + 5 * PAGE_SIZE, PAGE_SIZE)
        assert faulted is a[5]

    def test_shared_copy_never_masks_damage(self):
        device, store, _obs = build_demo_store()
        store.pagecache.resize(0)
        ref = store.load_manifest(store.snapshot_by_name("demo-1")).pages[0]
        content = store.read_page(ref)
        entry = store.dedup.get(ref.content_hash)
        assert entry.content is content and entry.decoded_from is not None
        inject(device, store, "checksum")  # demo-1's first page record
        with pytest.raises(ChecksumError):
            store.read_page(ref)


class TestCopyLifetime:
    def _warm(self, store, name):
        pages = store.load_manifest(store.snapshot_by_name(name)).pages
        store.read_pages_coalesced(pages)
        assert all(store.dedup.get(r.content_hash).content is not None
                   for r in pages)
        return pages

    def test_checked_paths_neither_read_nor_set_it(self):
        _device, store, _obs = build_demo_store()
        Scrubber(store, batch_extents=8).run()
        assert check_store(store).clean
        assert all(e.content is None and e.decoded_from is None
                   for e in store.dedup.entries().values())

    def test_fsck_repair_leaves_none(self):
        device, store, _obs = build_demo_store()
        self._warm(store, "demo-0")
        inject(device, store, "checksum")
        assert repair_store(store).findings  # a repair rebuilds the index
        assert all(e.content is None and e.decoded_from is None
                   for e in store.dedup.entries().values())

    def test_snapshot_delete_drops_freed_copies(self):
        _device, store, _obs = build_demo_store()
        pages = self._warm(store, "demo-1")
        store.delete_snapshot(store.snapshot_by_name("demo-1").snap_id)
        assert all(store.dedup.get(r.content_hash) is None for r in pages)

    def test_recover_leaves_none(self):
        _device, store, _obs = build_demo_store()
        self._warm(store, "demo-0")
        store.recover()
        assert all(e.content is None and e.decoded_from is None
                   for e in store.dedup.entries().values())

    def test_scrub_finding_drops_the_copy(self):
        device, store, _obs = build_demo_store()
        damaged = self._warm(store, "demo-1")[0]
        inject(device, store, "checksum")  # demo-1's first page record
        assert Scrubber(store, batch_extents=8).run().errors == 1
        assert store.dedup.get(damaged.content_hash).content is None


class TestHostMemoryPin:
    """Restores past the first of one image add worlds, not copies of
    its content: host memory retained from 1 to 4 eager restores grows
    by less than one image's content, with the cache smaller than the
    image so each restore reads most pages again."""

    def test_more_restores_retain_no_more_content(self):
        kernel, store, snapshot, _heap = image_world(
            cache_bytes=PAGES * PAGE_SIZE // 4)
        worlds = []
        tracemalloc.start()
        try:
            worlds.append(restore_fresh(kernel, store, snapshot, "r0"))
            one, _peak = tracemalloc.get_traced_memory()
            for i in range(1, 4):
                worlds.append(restore_fresh(kernel, store, snapshot, f"r{i}"))
            four, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(worlds) == 4
        assert four - one < PAGES * PAGE_SIZE


class TestDecodeOncePin:
    """A stored record is decoded once per store, not once per read:
    4 eager restores and then 4 lazy full-fault passes of a 256-page
    image of RAW, ZLIB and DELTA records, through a page cache a
    quarter of the image, so nearly every read misses again."""

    def test_each_record_decodes_once_however_often_it_misses(self):
        kernel, store, snapshot, heap = mixed_world(
            cache_bytes=PAGES * PAGE_SIZE // 4)
        decodes = count_decodes(store)
        misses = store.pagecache.misses
        worlds = [restore_fresh(kernel, store, snapshot, f"e{i}") for i in range(4)]
        for i in range(4):
            fresh, proc = restore_fresh(kernel, store, snapshot, f"l{i}",
                                        lazy=True, prefetch="off")
            sysc = Syscalls(fresh, proc)
            for page in range(PAGES):
                sysc.peek(heap + page * PAGE_SIZE, 1)
            worlds.append((fresh, proc))
        assert len(worlds) == 8
        # every ZLIB and DELTA record the image reaches, bases included
        encoded = [e for e in store.dedup.entries().values() if e.flags != ENC_RAW]
        assert len(decodes) == len(encoded)
        assert max(decodes.values()) == 1, max(decodes.values())
        assert store.pagecache.misses - misses > 8 * PAGES * 3 // 4


def overwrite_record(store, ref, flags, stored):
    """Write a valid page record of ``flags``/``stored`` over ``ref``'s
    extent (a misdirected write, or a reused extent read through a
    stale ref), padded or cut to the extent's length."""
    raw = pack_record(KIND_PAGE, 0, 0, stored, flags)
    assert len(raw) <= ref.extent.length
    raw += bytes(ref.extent.length - len(raw))
    store.device.write(ref.extent.offset, raw)


def stored_record(store, ref):
    """The ``(header, payload)`` of ``ref``'s record on media."""
    return unpack_record(store.device.read(ref.extent.offset, ref.extent.length))


class TestTheCopyNeverMasksMedia:
    """Once a record's content is held, a read still answers for the
    media: damage still fails, a different record still decodes."""

    def _held(self, encoding):
        kernel, store, snapshot, _heap = mixed_world(cache_bytes=0)
        refs = image_refs(store, snapshot)
        store.read_pages_coalesced(refs)
        ref = next(r for r in refs if r.flags == encoding)
        assert store.dedup.get(ref.content_hash).decoded_from is not None
        return store, ref

    @pytest.mark.parametrize("encoding", [ENC_RAW, ENC_ZLIB, ENC_DELTA])
    def test_a_flipped_payload_byte_still_fails(self, encoding):
        store, ref = self._held(encoding)
        block_no, within = divmod(ref.extent.offset + 40, 4096)
        store.device._blocks[block_no][within] ^= 0xFF
        with pytest.raises(ChecksumError):
            store.read_page(ref)

    def test_a_different_valid_record_is_decoded(self):
        store, ref = self._held(ENC_ZLIB)
        other = b"another page " * 300
        overwrite_record(store, ref, ENC_ZLIB, zlib.compress(other))
        decodes = count_decodes(store)
        assert store.read_page(ref) == other
        assert sum(decodes.values()) == 1
        # the new record's content is now the copy, and is not decoded again
        assert store.read_page(ref) is store.dedup.get(ref.content_hash).content
        assert sum(decodes.values()) == 1

    def test_a_delta_over_a_different_base_is_decoded(self):
        # The delta's own record is unchanged; its base's extent now
        # holds another valid record, so the delta patches that.
        store, ref = self._held(ENC_DELTA)
        header, stored = stored_record(store, ref)
        base = store.dedup.get(ref.content_hash).decoded_from.base_hash
        base_ref = store.dedup.get(base).ref
        held = store.dedup.get(ref.content_hash).content
        other = b"\x5a" * PAGE_SIZE
        overwrite_record(store, base_ref, ENC_ZLIB, zlib.compress(other))
        patched = store.codec.decode_page(header.flags, stored, lambda h: other)
        decodes = count_decodes(store)
        assert store.read_page(ref) == patched != held
        assert list(decodes.values()) == [1, 1]  # the base, then the delta

    def test_a_scrub_finding_makes_the_next_read_decode(self):
        store, ref = self._held(ENC_ZLIB)
        entry = store.dedup.get(ref.content_hash)
        held = entry.content
        block_no, within = divmod(ref.extent.offset + 40, 4096)
        store.device._blocks[block_no][within] ^= 0xFF
        assert Scrubber(store, batch_extents=64).run().errors == 1
        assert entry.content is None and entry.decoded_from is None
        store.device._blocks[block_no][within] ^= 0xFF  # the media mends
        decodes = count_decodes(store)
        content = store.read_page(ref)
        assert sum(decodes.values()) == 1
        assert content == held and content is not held

    def test_checked_paths_decode_as_often_warm_as_cold(self):
        counts = []
        for warm in (False, True):
            _kernel, store, snapshot, _heap = mixed_world(cache_bytes=0)
            if warm:
                store.read_pages_coalesced(image_refs(store, snapshot))
            decodes = count_decodes(store)
            assert check_store(store).clean
            fsck = sum(decodes.values())
            assert Scrubber(store, batch_extents=64).run().errors == 0
            scrub = sum(decodes.values()) - fsck
            walk = MediaWalk(store)
            for snapshot in store.snapshots():
                assert all(v.ok for v in walk.snapshot(snapshot))
            counts.append((fsck, scrub, sum(decodes.values()) - fsck - scrub))
        cold, warm_counts = counts
        assert cold == warm_counts and all(cold), counts


class TestNoOlderCopyAcrossReuse:
    def test_reused_extents_read_their_new_content(self):
        # A 1 MiB device: the allocator's cursors wrap onto the space a
        # deleted snapshot's records held, whose entries held copies.
        spec = replace(OPTANE_900P, capacity=1 << 20)
        store = ObjectStore(NvmeDevice(SimClock(), spec=spec, queue_depth=8,
                                       num_queues=4), cache_bytes=0)
        rng = random.Random(12)

        def commit(name):
            payloads = [rng.randbytes(PAGE_SIZE) if i % 2
                        else rng.randbytes(32) * (PAGE_SIZE // 32) for i in range(12)]
            refs = [store.write_page(p) for p in payloads]
            snap = store.commit_snapshot(name, meta={}, records=[], pages=refs)
            pages = dict(zip(refs, payloads))
            for ref, payload in pages.items():
                assert store.read_page(ref) == payload  # and holds its copy
            return snap, pages

        live, dead, reused = [commit("s0")], set(), 0
        for step in range(1, 40):
            store.flush_barrier()
            live.append(commit(f"s{step}"))
            reused += sum(ref.extent.offset in dead for ref in live[-1][1])
            if len(live) > 2:
                snap, pages = live.pop(0)
                store.delete_snapshot(snap.snap_id)
                dead.update(ref.extent.offset for ref in pages)
            for _snap, pages in live:
                for ref, payload in pages.items():
                    assert store.read_page(ref) == payload
        assert reused > 12, reused
