"""Micro-benchmarks of the core primitives (host-time, pytest-benchmark).

Unlike the table/ablation benchmarks — which measure *virtual* time on
the calibrated cost model — these measure how fast the simulator
itself executes its hot paths on the host, the number that bounds how
large an experiment the harness can run.  Useful when hacking on the
substrate; no paper claims attached.
"""

import gc
import random
import tracemalloc

import pytest

from repro.apps.serverless import ServerlessManager
from repro.core.backends import DiskBackend, MemoryBackend, make_disk_backend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.mem.address_space import AddressSpace, MemContext
from repro.mem.cow import AuroraCow
from repro.mem.phys import PhysicalMemory
from repro.obs import KernelObs
from repro.objstore.checksum import crc32_adler32, fletcher64
from repro.objstore.record import COVERED_SIZE, ENC_DELTA, ENC_ZLIB, decode, encode
from repro.objstore.store import ObjectStore
from repro.hw.nvme import NvmeDevice
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.sim.clock import SimClock
from repro.units import GIB, KIB, MSEC, PAGE_SIZE


@pytest.fixture
def world():
    mem = MemContext(SimClock(), PhysicalMemory(total_bytes=4 * GIB))
    cow = AuroraCow(mem)
    aspace = AddressSpace(mem, "bench")
    entry = aspace.mmap(1024 * PAGE_SIZE, name="heap")
    aspace.populate(entry.start, 1024 * PAGE_SIZE, fill_fn=lambda i: b"p%d" % i)
    return mem, cow, aspace, entry


def test_micro_fault_path(benchmark, world):
    mem, cow, aspace, entry = world
    counter = [0]

    def fault_new_page():
        counter[0] += 1
        target = entry.start + (counter[0] % 1024) * PAGE_SIZE
        aspace.write(target, b"write")

    benchmark(fault_new_page)


def test_micro_populate(benchmark):
    """Make a fresh 1024-page mapping resident with distinct content:
    one run of frames allocated, inserted, logged dirty and mapped."""
    mem = MemContext(SimClock(), PhysicalMemory(total_bytes=4 * GIB))
    AuroraCow(mem)

    def fresh_mapping():
        aspace = AddressSpace(mem, "bench")
        return (aspace, aspace.mmap(1024 * PAGE_SIZE, name="heap")), {}

    def populate(aspace, entry):
        return aspace.populate(entry.start, 1024 * PAGE_SIZE,
                               fill_fn=lambda i: b"p%d" % i)

    benchmark.pedantic(populate, setup=fresh_mapping, rounds=20)


def test_micro_full_freeze(benchmark, world):
    """A full freeze of a 1024-page object: one run, frozen, held and
    write-protected at once."""
    mem, cow, aspace, entry = world

    def freeze_all():
        return cow.freeze(aspace.vm_objects())

    result = benchmark.pedantic(freeze_all, rounds=1, iterations=1)
    assert len(result) >= 1024


def test_micro_cow_fault(benchmark, world):
    mem, cow, aspace, entry = world
    cow.freeze(aspace.vm_objects())
    counter = [0]

    def cow_write():
        counter[0] += 1
        aspace.write(entry.start + (counter[0] % 1024) * PAGE_SIZE, b"x")

    benchmark(cow_write)


def test_micro_incremental_freeze_among_groups(benchmark):
    """A 1-page incremental freeze of one group while 200 other groups
    hold 16 dirty pages each: dirty pages are kept per VM object, so
    the freeze reads only its own objects' lists and its cost does not
    grow with the other groups' dirty sets."""
    mem = MemContext(SimClock(), PhysicalMemory(total_bytes=4 * GIB))
    cow = AuroraCow(mem)
    for g in range(200):
        other = AddressSpace(mem, f"group{g}")
        region = other.mmap(16 * PAGE_SIZE)
        other.populate(region.start, 16 * PAGE_SIZE, fill=b"dirty")
    aspace = AddressSpace(mem, "app")
    heap = aspace.mmap(64 * PAGE_SIZE)
    aspace.populate(heap.start, 64 * PAGE_SIZE, fill=b"base")
    objects = aspace.vm_objects()
    last_epoch = [cow.freeze(objects).epoch]
    counter = [0]

    def freeze_one_dirty_page():
        counter[0] += 1
        aspace.write(heap.start + counter[0] % 64 * PAGE_SIZE, b"x")
        freeze_set = cow.freeze(objects, incremental_since=last_epoch[0] + 1)
        last_epoch[0] = freeze_set.epoch
        return freeze_set

    assert len(benchmark(freeze_one_dirty_page)) == 1


def test_micro_codec_roundtrip(benchmark):
    value = {
        "procs": [{"pid": i, "name": f"p{i}", "regs": list(range(16))}
                  for i in range(20)],
        "blob": b"\x00" * 512,
    }

    def roundtrip():
        return decode(encode(value))

    assert benchmark(roundtrip)["procs"][3]["pid"] == 3


@pytest.mark.parametrize(
    "size",
    # what the e2e record-size histogram is made of: page deltas,
    # pages, manifests and metadata records, spilled directories
    [64, 4 * KIB, 8 * KIB, 64 * KIB],
    ids=["64B", "4KiB", "8KiB", "64KiB"],
)
def test_micro_fletcher64(benchmark, size):
    data = (bytes(range(256)) * (size // 256 + 1))[:size]

    benchmark(fletcher64, data)


@pytest.mark.parametrize(
    "size",
    # the Fletcher-64 sizes plus the e2e mean record (≈ 1.7 KB)
    [64, 1700, 4 * KIB, 64 * KIB],
    ids=["64B", "1700B", "4KiB", "64KiB"],
)
def test_micro_record_checksum(benchmark, size):
    header = bytes(COVERED_SIZE)
    data = (bytes(range(256)) * (size // 256 + 1))[:size]

    benchmark(crc32_adler32, header, data)


def test_micro_store_write_page(benchmark):
    """One stored (not deduplicated) page write on a store bound to a
    kernel's observability plane."""
    clock = SimClock()
    store = ObjectStore(NvmeDevice(clock))
    store.attach_obs(KernelObs(clock))
    counter = [0]

    def write_unique_page():
        counter[0] += 1
        return store.write_page(b"payload-%d" % counter[0])

    benchmark(write_unique_page)


class _CapturedPage:
    """What ``ObjectStore.write_run`` reads of a captured frame."""

    def __init__(self, payload, base_hash=None, dirty_extents=None):
        self.payload = payload
        self.base_hash = base_hash
        self.dirty_extents = dirty_extents
        self._hash = ObjectStore.page_hash(payload)

    def content_hash(self):
        return self._hash


def test_micro_store_write_run(benchmark):
    """One 64-page ``write_run`` + commit of store misses on a 4-queue
    NVMe store: a third RAW (incompressible), a third ZLIB, a third
    DELTA against a stored base — the incremental write path per miss."""
    clock = SimClock()
    store = ObjectStore(NvmeDevice(clock, queue_depth=8, num_queues=4))
    rng = random.Random(7)
    bases = [b"base %d " % i * 400 for i in range(22)]
    base_refs = store.write_run([_CapturedPage(b) for b in bases], epoch=0)
    store.commit_snapshot("bases", {}, [], base_refs)
    rounds = [0]

    def make_pages():
        rounds[0] += 1
        tag = b"%08d" % rounds[0]
        pages = []
        for i in range(64):
            if i % 3 == 0:
                pages.append(_CapturedPage(rng.randbytes(PAGE_SIZE)))
            elif i % 3 == 1:
                pages.append(_CapturedPage(tag + b"text %d " % i * 500))
            else:
                base = bases[i % len(bases)]
                payload = base[:100] + tag + base[108:]
                pages.append(_CapturedPage(payload, ObjectStore.page_hash(base), [(100, 8)]))
        return (pages,), {}

    def write_and_commit(pages):
        refs = store.write_run(pages, epoch=rounds[0])
        store.commit_snapshot("r%d" % rounds[0], {}, [], refs)
        return refs

    refs = benchmark.pedantic(write_and_commit, setup=make_pages, rounds=30)
    assert sorted({ref.flags for ref in refs}) == [0, ENC_ZLIB, ENC_DELTA]


def test_micro_pagecache_get(benchmark):
    """One demand page read served from the page cache (a hit) on a
    store bound to a kernel's observability plane."""
    clock = SimClock()
    store = ObjectStore(NvmeDevice(clock))
    store.attach_obs(KernelObs(clock))
    ref = store.write_page(b"cached page")
    store.read_page(ref)

    assert benchmark(store.read_page, ref) == b"cached page"
    assert store.pagecache.misses == 1


def test_micro_device_read(benchmark):
    """One synchronous 4 KiB read on a qd8 × 4-queue device: the
    command routine (checks, doorbell, queue slot, channel occupancy,
    stats) and the block load."""
    device = NvmeDevice(SimClock(), queue_depth=8, num_queues=4)
    device.write(0, bytes(range(256)) * (4 * KIB // 256))

    assert len(benchmark(device.read, 0, 4 * KIB)) == 4 * KIB


def _miss_store(encoding: int):
    """A qd8 store bound to a kernel's observability plane, its page
    cache disabled so every read misses, holding one record of
    ``encoding`` (a DELTA record patches 16 bytes of an incompressible
    RAW base); returns the store and the record's ref."""
    clock = SimClock()
    store = ObjectStore(NvmeDevice(clock, queue_depth=8), cache_bytes=0)
    store.attach_obs(KernelObs(clock))
    if encoding == ENC_ZLIB:
        content = b"compressible page " * 200
        ref = store.write_page(content)
    else:
        base = random.Random(5).randbytes(PAGE_SIZE)
        content = b"sixteen new byte" + base[16:]
        ref = store.write_page(content, delta_base=store.write_page(base).content_hash,
                               dirty_extents=[(0, 16)])
    store.flush_barrier()
    assert ref.flags == encoding
    assert store.read_page(ref) == content
    return store, ref


@pytest.mark.parametrize("encoding", [ENC_ZLIB, ENC_DELTA], ids=["zlib", "delta"])
def test_micro_read_page_repeat_miss(benchmark, encoding):
    """A demand read of a record whose content its dedup entry already
    holds, missing the (disabled) page cache: the point read and the
    record's framing and checksum, no decode.  For the DELTA record the
    base is point-read the same way."""
    store, ref = _miss_store(encoding)
    content = store.dedup.get(ref.content_hash).content

    assert benchmark(store.read_page, ref) is content


@pytest.mark.parametrize("encoding", [ENC_ZLIB, ENC_DELTA], ids=["zlib", "delta"])
def test_micro_read_page_first_decode(benchmark, encoding):
    """A demand read that decodes: the record's dedup entry holds no
    content, so past the point read and checksum it inflates the ZLIB
    stream, or parses the DELTA record and patches its base (whose
    entry keeps its content, so the base costs a repeat miss)."""
    store, ref = _miss_store(encoding)
    entry = store.dedup.get(ref.content_hash)
    content = entry.content

    def forget():
        entry.content = entry.decoded_from = None

    assert benchmark.pedantic(store.read_page, args=(ref,), setup=forget,
                              rounds=2000) == content


def test_micro_eager_restore_shared(benchmark):
    """One eager restore of a 256-page incompressible image into a new
    kernel, through a page cache a quarter of the image, so most pages
    miss and are read again (RAW records: nothing to decode).
    ``retained_bytes_per_restore`` is the host memory (traced) each
    restore past the first keeps while its world lives: the worlds share
    the decoded content, so it is the worlds' own structures, not
    another copy of the image."""
    kernel = Kernel(hostname="micro", memory_bytes=4 * GIB)
    sls = SLS(kernel)
    store = ObjectStore(NvmeDevice(kernel.clock, queue_depth=8, num_queues=4),
                        mem=kernel.mem, cache_bytes=64 * PAGE_SIZE)
    backend = DiskBackend("disk0", store)
    backend.bind(kernel)
    rng = random.Random(7)
    pages = [rng.randbytes(PAGE_SIZE) for _ in range(256)]
    sysc = Syscalls(kernel, kernel.spawn("app"))
    heap = sysc.mmap(256 * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, 256 * PAGE_SIZE, fill_fn=pages.__getitem__)
    group = sls.persist(sysc.proc, name="app")
    group.attach(backend)
    snapshot = store.snapshot_by_name(sls.checkpoint(group).name)
    sls.barrier(group)

    def restore():
        fresh = Kernel(hostname="micro-restore", memory_bytes=4 * GIB,
                       clock=kernel.clock)
        image = load_image_from_store(store, snapshot, "disk0")
        procs, _ = SLS(fresh).restore(image, backend_name="disk0", store=store)
        return fresh, procs

    tracemalloc.start()
    try:
        worlds = [restore()]
        one, _peak = tracemalloc.get_traced_memory()
        worlds += [restore() for _ in range(3)]
        four, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.extra_info["retained_bytes_per_restore"] = (four - one) // 3
    del worlds

    _fresh, procs = benchmark(restore)
    assert len(procs) == 1


def test_micro_checkpoint_stream_media(benchmark):
    """One incremental checkpoint of a 256-page heap, 8 pages rewritten,
    10 ms of sim time after the last, under the group's default
    retention.  ``held_bytes_per_incremental`` is how much the device's
    host-side media grows per incremental from the 40th to the 160th:
    the retention window bounds the live set, and the device forgets
    a dead extent's bytes once no durable superblock slot names it, so
    it stays near 0 while the bytes written keep growing."""
    kernel = Kernel(hostname="micro", memory_bytes=4 * GIB)
    sls = SLS(kernel)
    store = ObjectStore(NvmeDevice(kernel.clock, queue_depth=8, num_queues=4),
                        mem=kernel.mem)
    backend = DiskBackend("disk0", store)
    rng = random.Random(11)
    sysc = Syscalls(kernel, kernel.spawn("app"))
    heap = sysc.mmap(256 * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, 256 * PAGE_SIZE,
                  fill_fn=lambda i: rng.randbytes(PAGE_SIZE))
    group = sls.persist(sysc.proc, name="app")
    group.attach(backend)
    sls.checkpoint(group)

    def incremental():
        for page in rng.sample(range(256), 8):
            sysc.poke(heap.start + page * PAGE_SIZE, rng.randbytes(PAGE_SIZE))
        kernel.run_for(10 * MSEC)
        return sls.checkpoint(group)

    def held_after(count: int) -> int:
        for _ in range(count):
            incremental()
        return store.device.held_bytes

    at_40 = held_after(40)
    at_160 = held_after(120)
    benchmark.extra_info["held_bytes_per_incremental"] = (at_160 - at_40) // 120

    assert benchmark(incremental) is group.latest_image


def test_micro_process_lifecycle(benchmark):
    """A process that opens a pipe, a socket pair and a file, then
    exits and is reaped.  ``retained_bytes_per_cycle`` is the host
    memory (traced) each cycle leaves behind: the kernel keeps nothing
    of a reaped process, so it stays about 0."""
    kernel = Kernel(hostname="micro", memory_bytes=4 * GIB)

    def cycle():
        proc = kernel.spawn("app")
        sysc = Syscalls(kernel, proc)
        sysc.pipe()
        sysc.socketpair()
        sysc.open("/scratch", O_RDWR | O_CREAT)
        kernel.exit(proc)
        kernel.reap(proc)

    cycle()
    tracemalloc.start()
    try:
        # A process and its threads point at each other: collect the
        # cycles, so what is measured is what the kernel still holds.
        gc.collect()
        before, _peak = tracemalloc.get_traced_memory()
        for _ in range(50):
            cycle()
        gc.collect()
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.extra_info["retained_bytes_per_cycle"] = (after - before) // 50

    benchmark(cycle)


def test_micro_recover(benchmark):
    """A reboot of a 512-page store after one full checkpoint and four
    one-page incrementals: reads the superblock, directory, manifests
    and metadata records, never a page record."""
    kernel = Kernel(hostname="micro", memory_bytes=4 * GIB)
    sls = SLS(kernel)
    sysc = Syscalls(kernel, kernel.spawn("app"))
    heap = sysc.mmap(512 * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, 512 * PAGE_SIZE,
                  fill_fn=lambda i: b"page-%d" % i + bytes(64))
    group = sls.persist(sysc.proc, name="app")
    backend = make_disk_backend(
        kernel, NvmeDevice(kernel.clock, queue_depth=8, num_queues=4)
    )
    group.attach(backend)
    sls.checkpoint(group)
    for k in range(4):
        sysc.poke(heap.start + k * PAGE_SIZE + 100, b"dirty-%d" % k)
        sls.checkpoint(group)
    sls.barrier(group)
    device = backend.store.device

    def reboot():
        return ObjectStore(device).recover()

    assert benchmark(reboot).snapshots_recovered == 5


def test_micro_warm_start(benchmark):
    """One lazy warm start (paper §4) of a deployed function on a qd8 ×
    4-queue store: the manifest and metadata record are read and
    verified, the image's own value restored, the hot set prefetched."""
    kernel = Kernel(hostname="micro", memory_bytes=4 * GIB)
    sls = SLS(kernel)
    backend = make_disk_backend(
        kernel, NvmeDevice(kernel.clock, queue_depth=8, num_queues=4)
    )
    manager = ServerlessManager(sls, backend=backend)
    manager.deploy("fn", customize=b"handler")

    def invoke():
        return manager.invoke("fn", payload=b"micro")

    assert benchmark(invoke).output == b"hello, micro"


def test_micro_deploy_invoke(benchmark):
    """One serverless deploy (init a function runtime, checkpoint it
    warm, exit the builder) and one lazy invoke of it, on a qd8 ×
    4-queue store already holding the runtime's pages: the per-page
    chain of populate, freeze, store capture, commit, restore and exit
    that a fleet deploy storm repeats."""
    kernel = Kernel(hostname="micro", memory_bytes=4 * GIB)
    sls = SLS(kernel)
    backend = make_disk_backend(
        kernel, NvmeDevice(kernel.clock, queue_depth=8, num_queues=4)
    )
    manager = ServerlessManager(sls, backend=backend)
    manager.deploy("runtime")
    counter = [0]

    def deploy_invoke():
        counter[0] += 1
        name = f"fn-{counter[0]}"
        manager.deploy(name, customize=b"handler-%d" % counter[0])
        return manager.invoke(name, payload=b"micro")

    deploy_invoke()  # the store and page cache warm
    assert benchmark(deploy_invoke).output == b"hello, micro"


def test_micro_memory_checkpoint(benchmark):
    """One steady-state incremental checkpoint of a 256-page heap to the
    memory backend, 1 dirty page, past retention: pruning runs in the
    loop (and every retention + 1 calls a consolidating full one)."""
    kernel = Kernel(hostname="micro", memory_bytes=4 * GIB)
    sls = SLS(kernel)
    sysc = Syscalls(kernel, kernel.spawn("app"))
    heap = sysc.mmap(256 * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, 256 * PAGE_SIZE, fill_fn=lambda i: b"page-%d" % i)
    group = sls.persist(sysc.proc, name="app")
    group.attach(MemoryBackend("memory"))
    counter = [0]

    def checkpoint():
        counter[0] += 1
        sysc.poke(heap.start + counter[0] % 256 * PAGE_SIZE, b"dirty-%d" % counter[0])
        return sls.checkpoint(group)

    for _ in range(group.retention + 1):
        checkpoint()
    benchmark(checkpoint)
    assert len(group.images) <= group.retention + 1
