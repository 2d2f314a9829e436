"""Ablation — lazy restore and clock prefetching (§3).

"Aurora restores the minimal application state ... Applications fault
in their working set during execution.  Aurora uses the clock page
replacement algorithm to optimize restore by eagerly paging in the
hottest pages to avoid excessive page faults."

Compares three restore policies on a skewed (hot/cold) Redis image:
eager (read everything), lazy (page on demand), lazy + hot prefetch —
reporting restore latency, first-request latency, and demand faults.
"""

from conftest import report

from repro.apps.kvstore import RedisLikeServer
from repro.core.backends import make_disk_backend
from repro.core.orchestrator import SLS
from repro.hw.nvme import NvmeDevice
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, MIB, PAGE_SIZE, fmt_time

HOT_PAGES = 64  # the skewed working set the app touches after restore


def build_image():
    kernel = Kernel(memory_bytes=16 * GIB)
    sls = SLS(kernel)
    server = RedisLikeServer(kernel, working_set=64 * MIB)
    server.load_dataset()
    group = sls.persist(server.proc, name="redis")
    backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
    group.attach(backend)
    sls.checkpoint(group)
    # The hot set: recently-written pages (what the hint captures).
    for i in range(HOT_PAGES):
        server.set(i, b"hot-%d" % i)
    image = sls.checkpoint(group)
    sls.barrier(group)
    return kernel, sls, server, image, backend.store


def drive(kernel, procs, server, requests=HOT_PAGES):
    """Replay the hot working set against a restored instance."""
    sys = Syscalls(kernel, procs[0])
    heap = next(e for e in procs[0].aspace.entries if e.name == "redis-heap")
    faults_before = kernel.mem.stats.pager_in
    with kernel.clock.region() as region:
        first_ns = None
        for i in range(requests):
            before = kernel.clock.now
            data = sys.peek(heap.start + i * PAGE_SIZE, 4)
            if first_ns is None:
                first_ns = kernel.clock.now - before
            assert data == b"hot-", data
    return {
        "serve_ns": region.elapsed,
        "first_ns": first_ns,
        "faults": kernel.mem.stats.pager_in - faults_before,
    }


def test_lazy_restore_policies(benchmark):
    def run():
        kernel, sls, server, image, store = build_image()
        results = {}
        # Each policy leg starts with a cold page cache: the ablation
        # isolates the restore *policy*, not cache warmth left behind
        # by the previous leg (the restorecache bench scenario covers
        # the cache's own effect).
        store.pagecache.clear()
        _, eager = sls.restore(image, backend_name="disk0",
                               new_instance=True, name_suffix="-eager")
        procs, _ = sls.restore(image, backend_name="disk0",
                               new_instance=True, name_suffix="-eager2")
        results["eager"] = {"restore": eager, **drive(kernel, procs, server)}

        store.pagecache.clear()
        procs, lazy = sls.restore(image, backend_name="disk0", lazy=True,
                                  prefetch="off",
                                  new_instance=True, name_suffix="-lazy")
        results["lazy"] = {"restore": lazy, **drive(kernel, procs, server)}

        store.pagecache.clear()
        procs, hot = sls.restore(image, backend_name="disk0", lazy=True,
                                 prefetch="hot",
                                 new_instance=True, name_suffix="-hot")
        results["lazy+prefetch"] = {"restore": hot, **drive(kernel, procs, server)}
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [policy,
         fmt_time(r["restore"].total_ns),
         r["restore"].pages_installed,
         r["faults"],
         fmt_time(r["serve_ns"])]
        for policy, r in results.items()
    ]
    report(
        "ablation_lazyrestore",
        "Ablation: restore policy on a skewed image (64 MiB, 64-page"
        " hot set)",
        ["Policy", "Restore latency", "Pages installed", "Demand faults",
         "Hot-set serve time"],
        rows,
    )
    eager, lazy, hot = (results[k] for k in ("eager", "lazy", "lazy+prefetch"))
    # Lazy restores return far sooner than eager.
    assert lazy["restore"].total_ns < eager["restore"].total_ns / 5
    assert hot["restore"].total_ns < eager["restore"].total_ns / 5
    # But pure-lazy pays demand faults the prefetch avoids.
    assert lazy["faults"] >= HOT_PAGES
    assert hot["faults"] == 0
    # Prefetch serves the hot set as fast as eager, at lazy's latency.
    assert hot["serve_ns"] <= lazy["serve_ns"] / 2
