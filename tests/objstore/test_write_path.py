"""The one write path: staged data records -> flush -> commit tail.

Every producer of a snapshot reaches the device the same way: its page
and metadata records wait in the store's ``WriteBatch``, one flush
submits them coalesced (one doorbell per shard touched), and the commit
tail — manifest, then the barriered superblock — follows as single
commands.  Nothing a caller passes selects a path, and staging never
shows: reads and ``flush_barrier`` flush first.
"""

import inspect
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli.recovery import build_demo_store, inject
from repro.core.backends import DiskBackend, StoreBackend
from repro.core.datasnap import datarestore, datasnap
from repro.core.orchestrator import SLS
from repro.core.remote import (
    MigrationReceiver,
    export_image,
    import_image,
    sls_send,
)
from repro.core.restore import load_image_from_store
from repro.errors import ObjectStoreError
from repro.hw.netdev import NetworkLink
from repro.hw.nvme import NvmeDevice
from repro.mem.address_space import AddressSpace
from repro.objstore.block import DATA_BASE, Volume
from repro.objstore.fsck import LOST_AND_FOUND, repair_store
from repro.objstore.record import KIND_MANIFEST, KIND_PAGE, unpack_record
from repro.objstore.snapshot import Snapshot, encode_manifest
from repro.objstore.store import ObjectStore
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Kernel
from repro.posix.objects import ObjectRegistry
from repro.posix.syscalls import Syscalls
from repro.posix.vnode import VfsNamespace
from repro.serial.memsnap import (
    capture_pages_to_store,
    capture_swapped_to_store,
)
from repro.sim.clock import SimClock
from repro.slsfs.fs import SlsFS
from repro.units import GIB, MIB, PAGE_SIZE

QUEUES = 4
#: manifest + superblock, one single-command doorbell each
COMMIT_TAIL = 2
HEAP_PAGES = 16


def nvme(clock, name="nvme0"):
    return NvmeDevice(clock, name=name, queue_depth=8, num_queues=QUEUES)


@contextmanager
def commit_cost(store):
    """(flush shards, doorbells) one producer's commit spends."""
    stats, store_stats = store.device.stats, store.stats
    before = store_stats.batch_shards, stats.doorbells
    cost = []
    yield cost
    cost += [store_stats.batch_shards - before[0], stats.doorbells - before[1]]


def snapshot_pages(store, name):
    """Sorted page contents of snapshot ``name``, read off the device."""
    snapshot = store.snapshot_by_name(name)
    _meta, _records, pages, _lineage = store.load_manifest(snapshot)
    return sorted(store.read_page(ref).rstrip(b"\x00") for ref in pages)


def reboot(store, mem=None):
    """A fresh store recovered after a power cut that follows a flush
    barrier: nothing but the device contents survives."""
    store.flush_barrier()
    store.device.crash()
    rebooted = ObjectStore(store.device, mem=mem)
    report = rebooted.recover()
    assert not report.errors and not report.snapshots_discarded
    return rebooted


def after_power_cut(store, name):
    """:func:`snapshot_pages` of ``name`` after a :func:`reboot`."""
    return snapshot_pages(reboot(store), name)


def assert_restores_after_reboot(store, name, backend_name, kernel, heap):
    """The producer's own reader, post-reboot: ``load_image_from_store``
    + restore on a fresh kernel serves every heap page *at its address*
    (a sorted bag of contents cannot see a missing or wrong slot map)."""
    rebooted = reboot(store, mem=kernel.mem)
    target = Kernel(hostname="fresh", memory_bytes=1 * GIB, clock=kernel.clock)
    procs, _metrics = SLS(target).restore(
        load_image_from_store(rebooted, rebooted.snapshot_by_name(name),
                              backend_name),
        backend_name=backend_name,
    )
    restored = Syscalls(target, procs[0])
    for i in range(HEAP_PAGES):
        want = b"heap-%d" % i
        assert restored.peek(heap.start + i * PAGE_SIZE, len(want)) == want


@pytest.fixture
def world():
    """One app with a 16-page heap, persisted on a 4-queue NVMe."""
    kernel = Kernel(hostname="src", memory_bytes=1 * GIB)
    sls = SLS(kernel)
    proc = kernel.spawn("app")
    sysc = Syscalls(kernel, proc)
    heap = sysc.mmap(HEAP_PAGES * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, HEAP_PAGES * PAGE_SIZE,
                  fill_fn=lambda i: b"heap-%d" % i)
    group = sls.persist(proc, name="app")
    backend = DiskBackend("disk0", ObjectStore(nvme(kernel.clock),
                                               mem=kernel.mem))
    backend.bind(kernel)
    group.attach(backend)
    return kernel, sls, proc, sysc, heap, group, backend.store


HEAP = sorted(b"heap-%d" % i for i in range(HEAP_PAGES))


class TestEveryProducerTakesTheOnePath:
    """Each commits with one doorbell per flush shard plus the commit
    tail — the per-record path rang one per page — and what it wrote
    reads back byte-identical, also across a power cut."""

    def test_store_backend_persist(self, world):
        kernel, sls, _proc, _sysc, heap, group, store = world
        image = sls.checkpoint(group, name="ckpt")
        info = image.copies["disk0"].flush
        assert (info.shards, info.doorbells) == (QUEUES, QUEUES + COMMIT_TAIL)
        assert info.records == HEAP_PAGES + 1 and info.extents == QUEUES
        before = snapshot_pages(store, "ckpt")
        assert before == HEAP
        assert after_power_cut(store, "ckpt") == before
        assert_restores_after_reboot(store, "ckpt", "disk0", kernel, heap)

    def test_import_image(self, world):
        kernel, sls, _proc, _sysc, heap, group, store = world
        blob = export_image(sls.checkpoint(group, name="ckpt"))
        target = ObjectStore(nvme(kernel.clock, "import-nvme"))
        with commit_cost(target) as cost:
            import_image(blob, target)
        assert cost == [QUEUES, QUEUES + COMMIT_TAIL]
        assert snapshot_pages(target, "import:ckpt") == HEAP
        assert after_power_cut(target, "import:ckpt") == HEAP
        assert_restores_after_reboot(target, "import:ckpt", "import", kernel, heap)

    def test_migration_receiver_build_image(self, world):
        kernel, sls, _proc, _sysc, heap, group, store = world
        link = NetworkLink(kernel.clock)
        src_ep, dst_ep = link.attach("src"), link.attach("dst")
        dst = Kernel(hostname="dst", memory_bytes=1 * GIB, clock=kernel.clock)
        target = ObjectStore(nvme(kernel.clock, "recv-nvme"), mem=dst.mem)
        receiver = MigrationReceiver(SLS(dst), target, dst_ep)
        image = sls.checkpoint(group, name="ckpt")
        sls.barrier(group)
        sls_send(image, src_ep, "dst")
        with commit_cost(target) as cost:
            assert receiver.pump(wait=True) == ["app"]
            # the stream's pages are staged, not yet on their way
            assert target.device.stats.doorbells == 0
            assert len(target.batch) == HEAP_PAGES
            receiver.build_image("app")
        assert cost == [QUEUES, QUEUES + COMMIT_TAIL]
        assert snapshot_pages(target, "recv:ckpt") == HEAP
        assert after_power_cut(target, "recv:ckpt") == HEAP
        # the replica outlives its host's reboot ("install a new
        # instance ... recover all")
        assert_restores_after_reboot(target, "recv:ckpt", "recv", kernel, heap)

    def test_datasnap(self, world):
        kernel, _sls, proc, _sysc, heap, _group, store = world
        with commit_cost(store) as cost:
            datasnap(store, proc.aspace, heap.start,
                     HEAP_PAGES * PAGE_SIZE, "pool")
        assert cost == [QUEUES, QUEUES + COMMIT_TAIL]
        assert snapshot_pages(store, "data:pool") == HEAP
        assert after_power_cut(store, "data:pool") == HEAP
        fresh = AddressSpace(kernel.mem, "post-reboot")
        fresh.mmap(HEAP_PAGES * PAGE_SIZE, addr=heap.start)
        datarestore(reboot(store, mem=kernel.mem), fresh, "pool")
        for i in range(HEAP_PAGES):
            want = b"heap-%d" % i
            assert fresh.read(heap.start + i * PAGE_SIZE, len(want)) == want

    def test_datasnap_sync_returns_durable(self, world):
        _kernel, _sls, proc, _sysc, heap, _group, store = world
        datasnap(store, proc.aspace, heap.start, HEAP_PAGES * PAGE_SIZE,
                 "pool", sync=True)
        assert store.device.pending_writes() == 0
        store.device.crash()  # no barrier of the caller's: sync was one
        rebooted = ObjectStore(store.device)
        assert rebooted.recover().snapshots_recovered == 1
        assert snapshot_pages(rebooted, "data:pool") == HEAP

    def test_slsfs_sync(self):
        store = ObjectStore(nvme(SimClock()))
        fs = SlsFS(store, ObjectRegistry())
        vfs = VfsNamespace(fs)
        files = sorted(b"file-%d" % i for i in range(HEAP_PAGES))
        for i, content in enumerate(files):
            vfs.open(f"/f{i}", O_RDWR | O_CREAT).write(content)
        with commit_cost(store) as cost:
            fs.sync(name="fs-0")
        assert cost == [QUEUES, QUEUES + COMMIT_TAIL]
        assert snapshot_pages(store, "fs-0") == files
        assert after_power_cut(store, "fs-0") == files
        rebooted = reboot(store)
        recovered = VfsNamespace(SlsFS.recover(
            rebooted, ObjectRegistry(), rebooted.snapshot_by_name("fs-0")))
        for i, content in enumerate(files):
            assert recovered.open(f"/f{i}", O_RDWR).read(PAGE_SIZE) == content

    def test_fsck_lost_and_found_repair(self):
        device, store, _obs = build_demo_store()
        salvageable = snapshot_pages(store, "demo-1")[1:]
        inject(device, store, "checksum")  # damages demo-1's first page
        writes_before = device.stats.writes
        with commit_cost(store) as cost:
            report = repair_store(store)
        # Tail only — the quarantine manifest and the superblock; the
        # salvaged records are already on media.  (fsck's media walk
        # rings read doorbells, so count write commands here.)
        assert cost[0] == 0
        assert device.stats.writes - writes_before == COMMIT_TAIL
        (quarantine,) = report.quarantined
        assert quarantine.startswith(LOST_AND_FOUND + "demo-1")
        assert snapshot_pages(store, quarantine) == salvageable
        assert after_power_cut(store, quarantine) == salvageable


class TestStagingIsInvisible:
    def test_read_page_of_a_staged_ref_flushes_first(self):
        store = ObjectStore(nvme(SimClock()))
        refs = [store.write_page(b"staged-%d" % i) for i in range(8)]
        assert len(store.batch) == 8 and store.device.stats.doorbells == 0
        assert store.read_page(refs[3]) == b"staged-3"
        assert len(store.batch) == 0
        assert store.stats.batches_flushed == 1

    def test_read_meta_of_a_staged_ref_flushes_first(self):
        store = ObjectStore(nvme(SimClock()))
        ref = store.write_meta(7, {"pid": 7})
        store.write_page(b"rides along")
        assert store.read_meta(ref) == {"pid": 7}
        assert len(store.batch) == 0

    def test_bulk_read_of_staged_refs_flushes_first(self):
        store = ObjectStore(nvme(SimClock()))
        refs = [store.write_page(b"bulk-%d" % i) for i in range(8)]
        payloads = store.read_pages_coalesced(refs)
        assert [payloads[r.content_hash] for r in refs] == [
            b"bulk-%d" % i for i in range(8)
        ]
        assert len(store.batch) == 0

    def test_read_of_a_flushed_ref_leaves_the_batch_alone(self):
        store = ObjectStore(nvme(SimClock()))
        flushed = store.write_page(b"on media")
        store.batch.flush()
        store.write_page(b"still staged")
        assert store.read_page(flushed) == b"on media"
        assert len(store.batch) == 1

    def test_flush_barrier_makes_staged_records_durable(self):
        store = ObjectStore(nvme(SimClock()))
        refs = [store.write_page(b"barrier-%d" % i) for i in range(8)]
        store.flush_barrier()
        assert len(store.batch) == 0
        assert store.device.crash() == 0  # nothing was still in flight
        store.pagecache.clear()
        assert [store.read_page(r) for r in refs] == [
            b"barrier-%d" % i for i in range(8)
        ]

    def test_without_the_barrier_they_tear_and_nothing_committed_is_lost(self):
        store = ObjectStore(nvme(SimClock()))
        kept = store.write_page(b"committed")
        store.commit_snapshot("kept", meta=None, records=[], pages=[kept])
        store.flush_barrier()
        refs = [store.write_page(b"in-flight-%d" % i) for i in range(8)]
        store.batch.flush()  # submitted, not waited for
        assert store.device.crash() > 0
        with pytest.raises(ObjectStoreError):
            store.read_page(refs[0])
        rebooted = ObjectStore(store.device)
        report = rebooted.recover()
        assert (report.snapshots_recovered, report.snapshots_discarded) == (1, 0)
        assert snapshot_pages(rebooted, "kept") == [b"committed"]


# -- property: any interleaving, any cut -> a committed prefix --------------------

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("page"), st.integers(0, 5)),
        st.tuples(st.just("meta"), st.integers(0, 5)),
        st.tuples(st.just("flush"), st.just(0)),
        st.tuples(st.just("commit"), st.just(0)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
        st.tuples(st.just("read"), st.integers(0, 63)),
    ),
    max_size=40,
)


def read_state(store):
    """{snapshot name: (sorted page contents, sorted meta values)}."""
    state = {}
    for snapshot in store.snapshots():
        _meta, records, pages, _lineage = store.load_manifest(snapshot)
        state[snapshot.name] = (
            sorted(store.read_page(ref).rstrip(b"\x00") for ref in pages),
            sorted(store.read_meta(ref)["n"] for ref in records),
        )
    return state


@settings(max_examples=60, deadline=None)
@given(ops=OPS, cut_after=st.integers(0, 40),
       linger_ns=st.integers(0, 400_000))
def test_recovered_store_is_a_committed_prefix(ops, cut_after, linger_ns):
    """Random write/flush/commit/delete/read interleavings against a
    dict model, power cut ``linger_ns`` after the first ``cut_after``
    operations: what recovery adopts is the directory some prefix of
    the commits and deletes left — never older than the newest one
    whose superblock was durable at the cut — with every page and
    metadata record byte-identical to the model."""
    clock = SimClock()
    device = nvme(clock)
    store = ObjectStore(device)
    live = {}  # name -> (sorted page contents, sorted meta values)
    #: (virtual time its superblock is durable, directory then)
    history = [(0, {})]
    pages, metas = [], []  # staged for the next commit: (ref, content)
    commits = 0

    for op, arg in ops[:cut_after]:
        if op == "page":
            content = b"page-%d-%d" % (commits, arg)
            pages.append((store.write_page(content), content))
        elif op == "meta":
            metas.append((store.write_meta(arg, {"n": arg}), arg))
        elif op == "flush":
            store.batch.flush()
        elif op == "commit":
            commits += 1
            store.commit_snapshot(
                f"s{commits}", meta=None,
                records=[ref for ref, _ in metas],
                pages=[ref for ref, _ in pages],
            )
            live[f"s{commits}"] = (
                sorted(content for _, content in pages),
                sorted(value for _, value in metas),
            )
            pages, metas = [], []
            history.append((device.pending_deadline(), dict(live)))
        elif op == "delete" and live:
            name = sorted(live)[arg % len(live)]
            store.delete_snapshot(store.snapshot_by_name(name).snap_id)
            del live[name]
            history.append((device.pending_deadline(), dict(live)))
        elif op == "read" and pages:
            ref, content = pages[arg % len(pages)]
            assert store.read_page(ref).rstrip(b"\x00") == content

    clock.advance(linger_ns)
    cut_at = clock.now
    device.crash()
    rebooted = ObjectStore(device)
    report = rebooted.recover()
    assert not report.snapshots_discarded, report.errors
    recovered = read_state(rebooted)
    durable_floor = max(
        i for i, (durable_at, _) in enumerate(history) if durable_at <= cut_at
    )
    assert any(
        state == recovered
        for _durable_at, state in history[durable_floor:]
    ), (recovered, history, cut_at)


# -- ordering by construction: the volume barriers, the commit point flushes -------


def test_the_volume_computes_the_superblock_barrier():
    """No argument asks for the barrier and none can decline it: with a
    long write in flight on another queue the superblock still lands
    after it (per-queue FIFO alone would let it race ahead on queue 0)."""
    assert list(inspect.signature(Volume.write_superblock).parameters) == [
        "self", "payload_value",
    ]
    device = nvme(SimClock())
    big = device.write_async(DATA_BASE, b"x", logical_nbytes=4 * MIB, queue=3)
    superblock = Volume(device).write_superblock(b"names nothing yet")
    assert superblock.issued_at < big.completes_at < superblock.completes_at


def name_a_staged_page(store):
    """What a caller that forgot to flush would do: a snapshot enters
    the directory, and the directory is written, while the snapshot's
    one page still waits in the batch."""
    ref = store.write_page(b"named while staged")
    manifest = store._write_record(
        KIND_MANIFEST, 0, encode_manifest(None, [], [ref])
    )
    store._take_references(
        Snapshot(snap_id=store.directory.allocate_id(), name="s", epoch=0,
                 created_at_ns=0, manifest_extent=manifest),
        [], [ref],
    )
    store._write_directory()
    return ref


def test_the_directory_write_flushes_for_itself():
    clock = SimClock()
    device = nvme(clock)
    store = ObjectStore(device)
    ref = name_a_staged_page(store)
    assert len(store.batch) == 0 and store.stats.batches_flushed == 1
    submitted = clock.now
    page_done = max(t.completes_at for t in store.batch.last_tickets)
    deadline = device.pending_deadline()  # the superblock's: it is last
    assert submitted < page_done < deadline
    # on the device, whole: the record checksum verifies
    header, _stored = unpack_record(
        device.read(ref.extent.offset, ref.extent.length)
    )
    assert header.kind == KIND_PAGE
    # A cut changes outcome only where a write completes, so 50 ns steps
    # plus both sides of each completion stand for every instant.
    for cut_at in sorted({*range(submitted, deadline, 50), page_done - 1,
                          page_done, deadline - 1, deadline}):
        clock = SimClock()
        store = ObjectStore(nvme(clock))
        name_a_staged_page(store)
        clock.advance_to(cut_at)
        store.device.crash()
        rebooted = ObjectStore(store.device)
        report = rebooted.recover()
        # never a directory naming a torn record: all of it or none
        assert not report.snapshots_discarded, (cut_at, report.errors)
        names = [snapshot.name for snapshot in rebooted.snapshots()]
        assert names == (["s"] if cut_at >= deadline else []), cut_at
        if names:
            assert snapshot_pages(rebooted, "s") == [b"named while staged"]


def test_two_unbarriered_commits_fall_back_to_the_last_durable_generation():
    device = nvme(SimClock())
    store = ObjectStore(device)
    for name in (b"s0", b"s1"):
        store.commit_snapshot(name.decode(), meta=None, records=[],
                              pages=[store.write_page(name)])
        store.flush_barrier()
    # generations 3 and 4, one per slot, neither waited for
    store.delete_snapshot(store.snapshot_by_name("s0").snap_id)
    store.commit_snapshot("s2", meta=None, records=[],
                          pages=[store.write_page(b"s2")])
    assert device.crash() >= 2  # before either superblock is durable
    rebooted = ObjectStore(device)
    rebooted.recover()
    assert [snapshot.name for snapshot in rebooted.snapshots()] == ["s0", "s1"]


def two_unbarriered_commits(clock):
    """``s0``, ``s1`` committed and barriered, then a delete and a
    commit with no barrier between: superblock generations 3 and 4 in
    flight at once.  Returns the device and ``[(virtual time a
    generation is durable, the names it holds)]``."""
    device = nvme(clock)
    store = ObjectStore(device)
    for name in (b"s0", b"s1"):
        store.commit_snapshot(name.decode(), meta=None, records=[],
                              pages=[store.write_page(name)])
        store.flush_barrier()
    history = [(clock.now, ["s0", "s1"])]
    store.delete_snapshot(store.snapshot_by_name("s0").snap_id)
    history.append((device.pending_deadline(), ["s1"]))
    store.commit_snapshot("s2", meta=None, records=[],
                          pages=[store.write_page(b"s2")])
    history.append((device.pending_deadline(), ["s1", "s2"]))
    return device, history


def test_a_cut_anywhere_in_two_unbarriered_commits_recovers_the_newest_durable():
    """Torn writes unwind to their pre-images, so with two generations
    in flight a cut at any instant — 50 ns steps plus both sides of
    every completion stand for all of them — recovers exactly the
    newest generation durable at the cut, every page intact."""
    clock = SimClock()
    device, history = two_unbarriered_commits(clock)
    submitted, deadline = clock.now, history[-1][0]
    completions = {p.durable_at for p in device._pending}
    assert len(completions) >= 4  # two superblocks, a page, a manifest
    cuts = {*range(submitted, deadline, 50), deadline}
    cuts |= {edge for done in completions for edge in (done - 1, done)}
    for cut_at in sorted(cuts):
        clock = SimClock()
        device, history = two_unbarriered_commits(clock)
        clock.advance_to(cut_at)
        device.crash()
        rebooted = ObjectStore(device)
        report = rebooted.recover()
        assert not report.snapshots_discarded, (cut_at, report.errors)
        durable = [names for durable_at, names in history if durable_at <= cut_at]
        names = [snapshot.name for snapshot in rebooted.snapshots()]
        assert names == durable[-1], cut_at
        for name in names:
            assert snapshot_pages(rebooted, name) == [name.encode()]


# -- the API has no path selector left ---------------------------------------------


@pytest.mark.parametrize("function", [
    ObjectStore.write_page, ObjectStore.write_meta,
    ObjectStore._stage_record, ObjectStore._write_record,
    ObjectStore.commit_snapshot, ObjectStore.delete_snapshot,
    ObjectStore._write_directory, Volume.write_superblock,
    StoreBackend.__init__, DiskBackend.__init__,
    capture_pages_to_store, capture_swapped_to_store,
], ids=lambda f: f.__qualname__)
def test_no_parameter_selects_a_write_path(function):
    assert not {"batch", "batched", "sync"} & set(
        inspect.signature(function).parameters
    )


def test_the_store_owns_one_batch():
    store = ObjectStore(nvme(SimClock()))
    assert store.batch.store is store
    assert not hasattr(store, "begin_batch")
    assert not hasattr(store.batch, "add_page")
