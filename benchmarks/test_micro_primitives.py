"""Micro-benchmarks of the core primitives (host-time, pytest-benchmark).

Unlike the table/ablation benchmarks — which measure *virtual* time on
the calibrated cost model — these measure how fast the simulator
itself executes its hot paths on the host, the number that bounds how
large an experiment the harness can run.  Useful when hacking on the
substrate; no paper claims attached.
"""

import pytest

from repro.apps.serverless import ServerlessManager
from repro.core.backends import MemoryBackend, make_disk_backend
from repro.core.orchestrator import SLS
from repro.mem.address_space import AddressSpace, MemContext
from repro.mem.cow import AuroraCow
from repro.mem.phys import PhysicalMemory
from repro.obs import KernelObs
from repro.objstore.checksum import crc32_adler32, fletcher64
from repro.objstore.record import COVERED_SIZE, decode, encode
from repro.objstore.store import ObjectStore
from repro.hw.nvme import NvmeDevice
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.sim.clock import SimClock
from repro.units import GIB, KIB, PAGE_SIZE


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


def test_micro_freeze_per_page(benchmark, world):
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
