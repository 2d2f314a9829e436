"""Incremental manifests (format v3 on): an incremental lists only the
page rows it added plus its lineage's manifests, so what a commit or a
delete costs follows the dirty set, not the image, and a reboot reads
tables, not pages — and an ancestor deleted under a live descendant
keeps its table alive.
"""

from collections import Counter

import pytest

from repro.core.backends import make_disk_backend
from repro.core.orchestrator import SLS
from repro.errors import ChecksumError
from repro.hw.nvme import NvmeDevice
from repro.objstore import ObjectStore, check_store, repair_store
from repro.objstore.fsck import LOST_AND_FOUND
from repro.objstore.image import Lineage, read_image, write_image
from repro.objstore.record import HEADER_SIZE
from repro.objstore.snapshot import _PAGE_ROW, PAGEMAP_ROW
from repro.objstore.walk import MediaWalk
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.sim.clock import SimClock
from repro.units import GIB, KIB, PAGE_SIZE


def counted(store, counts):
    """Count the store's dedup holds and releases into ``counts``."""
    dedup = store.dedup
    hold, release = dedup.hold, dedup.release

    def counting_hold(*args, **kwargs):
        counts["hold"] += 1
        return hold(*args, **kwargs)

    def counting_release(*args, **kwargs):
        counts["release"] += 1
        return release(*args, **kwargs)

    dedup.hold, dedup.release = counting_hold, counting_release


def full_checkpoint(pages):
    """A ``pages``-page heap, checkpointed once in full.  Returns the
    SLS, the heap's syscalls and entry, the group and its backend."""
    kernel = Kernel(hostname="lineage", memory_bytes=4 * GIB)
    sls = SLS(kernel)
    proc = kernel.spawn("app")
    sysc = Syscalls(kernel, proc)
    heap = sysc.mmap(pages * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, pages * PAGE_SIZE,
                  fill_fn=lambda i: b"page-%d" % i + bytes(64))
    group = sls.persist(proc, name="app")
    backend = make_disk_backend(
        kernel, NvmeDevice(kernel.clock, queue_depth=8, num_queues=4)
    )
    group.attach(backend)
    sls.checkpoint(group)
    return sls, sysc, heap, group, backend


def one_page_incrementals(pages, incrementals=3):
    """A full checkpoint of a ``pages``-page heap, then incrementals
    that each dirty one page; the newest is deleted last.  Returns
    (manifest payload bytes, holds) per incremental and the rows its
    delete released."""
    sls, sysc, heap, group, backend = full_checkpoint(pages)
    store = backend.store
    counts = Counter()
    counted(store, counts)
    commits = []
    for k in range(incrementals):
        sysc.poke(heap.start + k * PAGE_SIZE + 100, b"dirty-%d" % k)
        before = counts["hold"]
        image = sls.checkpoint(group)
        manifest = image.copies[backend.name].snapshot.manifest_extent
        commits.append((manifest.length - HEADER_SIZE, counts["hold"] - before))
    sls.barrier(group)
    before = counts["release"]
    store.delete_snapshot(image.copies[backend.name].snapshot.snap_id)
    return commits, counts["release"] - before


def test_a_one_page_incremental_costs_the_same_at_any_image_size():
    results = {pages: one_page_incrementals(pages) for pages in (64, 512, 4096)}
    for commits, _released in results.values():
        assert all(payload <= 1 * KIB for payload, _holds in commits)
    holds = {pages: [h for _payload, h in commits]
             for pages, (commits, _released) in results.items()}
    released = {pages: r for pages, (_commits, r) in results.items()}
    assert len(set(map(tuple, holds.values()))) == 1, holds
    assert len(set(released.values())) == 1, released
    assert released[64] == holds[64][-1]  # its own rows and nothing else


def reboot_reads(pages, incrementals=4):
    """A full checkpoint, then one-page incrementals, then a reboot:
    the device reads and bytes ``recover()`` issued, and the page rows
    of the tables it adopted."""
    sls, sysc, heap, group, backend = full_checkpoint(pages)
    for k in range(incrementals):
        sysc.poke(heap.start + k * PAGE_SIZE + 100, b"dirty-%d" % k)
        sls.checkpoint(group)
    sls.barrier(group)
    device = backend.store.device
    reads, read_bytes = device.stats.reads, device.stats.bytes_read
    rebooted = ObjectStore(device)
    assert rebooted.recover().snapshots_recovered == 1 + incrementals
    reads, read_bytes = device.stats.reads - reads, device.stats.bytes_read - read_bytes
    rows = sum(len(rebooted.load_manifest(s).pages) for s in rebooted.snapshots())
    return reads, read_bytes, rows


def test_a_reboot_reads_the_same_records_at_any_image_size():
    results = {pages: reboot_reads(pages) for pages in (64, 512, 4096)}
    assert len({reads for reads, _bytes, _rows in results.values()}) == 1, results
    # what grows is the tables: a manifest row per page, and a slot-map
    # row in the full image's metadata record (+1 B as varints widen) —
    # never a page record
    (_r, small, small_rows), (_r, large, large_rows) = results[64], results[4096]
    per_row = (large - small) / (large_rows - small_rows)
    assert per_row <= _PAGE_ROW.size + PAGEMAP_ROW.size + 1, results


# -- ancestors deleted under a live incremental -----------------------------------


def chain(store, length=4):
    """A full image then incrementals, each rewriting two of eight slots
    (one of them as a delta against its previous content).  Returns
    [(snapshot, complete expected content)]."""
    contents = {slot: b"base-%d" % slot + bytes(200) for slot in range(8)}
    page_map = {slot: store.write_page(content) for slot, content in contents.items()}
    snapshots, lineage, base_map = [], Lineage(), None
    for number in range(length):
        if number:
            base_map, page_map = page_map, dict(page_map)
            for slot in (number % 8, (number + 3) % 8):
                content = bytearray(contents[slot])
                content[:16] = (b"v%d-%d" % (number, slot)).ljust(16, b".")
                contents[slot] = bytes(content)
                page_map[slot] = store.write_page(
                    contents[slot], delta_base=base_map[slot].content_hash,
                    dirty_extents=[(0, 16)],
                )
        snapshot, lineage = write_image(
            store, name=f"ckpt-{number}", meta=None, value={"n": number},
            page_map={1: page_map}, base_map=base_map and {1: base_map},
            base=lineage,
        )
        snapshots.append((snapshot, dict(contents)))
    return snapshots


def reads_back(store, live):
    """After a reboot, every live snapshot reads back page for page and
    the rebuilt refcounts are the ones the manifests imply."""
    store.flush_barrier()
    rebooted = ObjectStore(store.device)
    assert not rebooted.recover().snapshots_discarded
    assert check_store(rebooted).clean
    for snapshot, contents in live:
        _value, page_map = read_image(rebooted, snapshot)
        assert {slot: rebooted.read_page(ref) for slot, ref in page_map[1].items()} \
            == contents


@pytest.mark.parametrize("doomed", [[2], [0], [0, 1, 2]],
                         ids=["middle", "full-base", "every-ancestor"])
def test_ancestors_deleted_under_a_live_incremental(doomed):
    store = ObjectStore(NvmeDevice(SimClock(), queue_depth=8, num_queues=4))
    snapshots = chain(store)
    assert store.codec.enabled and store.stats.pages_delta
    order = doomed + [3] + [i for i in range(3) if i not in doomed]
    live = dict(enumerate(snapshots))
    for index in order:
        store.delete_snapshot(live.pop(index)[0].snap_id)
        assert check_store(store).clean, index
        reads_back(store, live.values())
    assert not store.dedup.entries() and not store._meta_refs
    garbage = sum(extent.length for extent in store.garbage)
    assert len(set(store.garbage)) == len(store.garbage)
    assert garbage == store.allocator.allocated_bytes


def test_a_table_is_walked_once_however_many_snapshots_read_through_it():
    store = ObjectStore(NvmeDevice(SimClock(), queue_depth=8, num_queues=4))
    snapshots = chain(store)
    store.flush_barrier()
    walk = MediaWalk(store)
    directory = walk.directory()
    pages = [v for sid in sorted(directory.snapshots)
             for v in walk.snapshot(directory.snapshots[sid])
             if v.reference.role == "page"]
    assert all(v.ok for v in pages)
    rows = sum(len(store.load_manifest(s).pages) for s, _contents in snapshots)
    assert len(pages) == rows
    assert check_store(store).pages_verified == rows


def test_a_bad_row_condemns_every_snapshot_whose_lineage_lists_it():
    store = ObjectStore(NvmeDevice(SimClock(), queue_depth=8, num_queues=4))
    snapshots = chain(store)
    store.flush_barrier()
    # a row of the full image's table, which every incremental's
    # lineage lists
    ref = store.load_manifest(snapshots[0][0]).pages[2]
    block_no, within = divmod(ref.extent.offset + 40, 4096)
    store.device._blocks[block_no][within] ^= 0xFF
    report = check_store(store)
    damaged = {f.snapshot for f in report.findings}
    assert damaged == {"ckpt-0", "ckpt-1", "ckpt-2", "ckpt-3"}
    # a reboot reads no page: all four are adopted, and the bad row
    # fails its first read
    recovered = ObjectStore(store.device)
    assert recovered.recover().snapshots_discarded == 0
    with pytest.raises(ChecksumError):
        recovered.read_page(ref)
    # repair salvages every verified row into self-contained tables
    assert repair_store(store).repaired_all
    assert check_store(store).clean
    quarantined = [s for s in store.snapshots() if s.name.startswith(LOST_AND_FOUND)]
    assert len(quarantined) == 4
    assert all(not store.load_manifest(s).lineage for s in quarantined)


def test_a_pruned_segment_reads_each_manifest_once():
    """Retention deletes a segment newest first: each delete frees the
    table it names, so no manifest is read twice and none leaks."""
    kernel = Kernel(hostname="prune", memory_bytes=4 * GIB)
    sls = SLS(kernel)
    proc = kernel.spawn("app")
    sysc = Syscalls(kernel, proc)
    heap = sysc.mmap(16 * PAGE_SIZE, name="heap")
    group = sls.persist(proc, name="app")
    backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
    group.attach(backend)
    group.retention = 3
    store = backend.store
    read = store.read_manifest
    extents = []
    store.read_manifest = lambda extent: (extents.append(extent), read(extent))[1]
    for i in range(6):
        sysc.poke(heap.start + (i % 16) * PAGE_SIZE, b"gen%d" % i)
        sls.checkpoint(group)
    assert store.stats.snapshots_deleted == 4
    assert len(extents) == len(set(extents)) == 4
    assert check_store(store).clean
