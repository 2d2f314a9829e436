"""The five end-to-end workloads.

Each workload is one pass over a fresh world in three phases:

``setup``   generate inputs, build the world, load the dataset, take
            priming checkpoints — timed as ``setup_s``;
``run``     the timed region (``host_s``): only program operations and
            the application's own loads/stores;
``verify``  the correctness oracles, outside every timed region.

Sizes are the issue's sizes times one recorded factor (:data:`SCALE`),
so that a pass takes a few host seconds and several passes fit one
driver run; operation *counts* are never scaled below a percentile's
sample floor (p95 needs 200 samples, p99 1000).
Every workload runs on ``with_queue_model(OPTANE_900P, 8,
num_queues=4)`` and drives the program through its public API only.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import generator
from report import WORKLOAD_NAMES
from repro.apps.serverless import ServerlessManager
from repro.core.backends import DiskBackend, MemoryBackend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.errors import AuroraError
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P, with_queue_model
from repro.obs import names as obs_names
from repro.objstore.fsck import check_store
from repro.objstore.gc import GarbageCollector
from repro.objstore.scrub import Scrubber
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, KIB, PAGE_SIZE

assert generator.PAGE == PAGE_SIZE

DEVICE_SPEC = with_queue_model(OPTANE_900P, 8, num_queues=4)
BACKEND = "disk0"
#: checkpoint period of the open-loop stream: 100 Hz in sim time
PERIOD_NS = 10_000_000
#: every size is the issue's size times this (recorded in the result);
#: ``--quick`` (harness tests) uses the smaller factor and waives the
#: percentile sample floors
SCALE = 0.25
QUICK_SCALE = 0.125


#: what :meth:`Workload.op` returns for an operation that raised
FAILED = object()


class Workload:
    """One pass of one workload; subclasses fill in the three phases."""

    name = ""

    def __init__(self, seed: int, tracer=None, quick: bool = False):
        self.seed = seed
        self.tracer = tracer
        self.quick = quick
        #: operation kind -> sim latencies (ns), failed operations absent
        self.samples: dict[str, list[int]] = {}
        #: how late the open-loop generator fired each request (sim ns)
        self.late: list[int] = []
        self.ops_attempted = 0
        self.ops_failed = 0
        self.errors: list[str] = []
        #: post-reboot page audit: detail of one oracle verdict
        self.audit_checked = 0
        self.audit_wrong = 0
        #: set by ``--tolerate-postreboot-restore``: pages the post-reboot
        #: restore gets wrong are counted in ``audit_wrong`` only
        self.tolerate_postreboot_restore = False
        #: counts read from the program's public stats objects
        self.counts: dict[str, int] = {}
        #: host seconds of the segments of the phase in progress: one per
        #: operation and one per gap between operations (see :meth:`lap`)
        self.laps: list[float] = []
        self._lap_from = perf_counter()
        #: harness tests set this to corrupt the expected bytes: every
        #: oracle must then report failures
        self.corrupt_expected = False

    # -- helpers -------------------------------------------------------------

    def size(self, full: int, floor: int = 0) -> int:
        """The issue's ``full`` size scaled, but never below ``floor``
        (a percentile's sample floor)."""
        if self.quick:
            return int(full * QUICK_SCALE)
        return max(floor, int(full * SCALE))

    def bind_clock(self, clock) -> None:
        """Tell the tracer which world's sim clock to read."""
        if self.tracer is not None:
            self.tracer.clock = clock

    def lap(self) -> None:
        """Close one host-time segment.  Every pass runs the identical
        sequence of segments, so the harness can take each segment's
        fastest instance across passes: interference from the machine
        (this is a shared VM: steal comes in millisecond bursts) hits
        different segments in different passes and drops out."""
        now = perf_counter()
        self.laps.append(now - self._lap_from)
        self._lap_from = now

    def take_laps(self) -> list[float]:
        """End a phase: its segments, and a fresh list for the next."""
        self.lap()
        laps, self.laps = self.laps, []
        return laps

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run one counted operation; a program error fails it."""
        self.ops_attempted += 1
        self.lap()
        try:
            return fn(*args, **kwargs)
        except AuroraError as exc:
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return FAILED
        finally:
            self.lap()

    def op(self, kind: str, fn, *args, **kwargs):
        """One operation of the timed region: :meth:`attempt` inside a
        root-level operation span when tracing."""
        tracer = self.tracer
        if tracer is None:
            return self.attempt(kind, fn, *args, **kwargs)
        frame = tracer.begin_operation(kind)
        try:
            return self.attempt(kind, fn, *args, **kwargs)
        finally:
            tracer.end_operation(frame)

    @contextmanager
    def untimed(self):
        """Oracle work that has to happen mid-run: off both host clocks."""
        self.lap()
        if self.tracer is not None:
            self.tracer.pause()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.resume()
            self._lap_from = perf_counter()

    def check(self, ok: bool, what: str) -> None:
        """One oracle verdict: counted as an operation that can fail."""
        self.ops_attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str, count: int = 1) -> None:
        self.ops_failed += count
        if len(self.errors) < 20:
            self.errors.append(what)

    def check_pages(self, got: list[bytes], want: list[bytes], what: str) -> int:
        """Every verified page is an operation; one that read back wrong
        (or is missing) is a failed one.  Returns how many were wrong."""
        wrong = mismatches(got, want)
        self.ops_attempted += len(want)
        if wrong:
            self.fail(f"{what}: {wrong}/{len(want)} pages differ", wrong)
        return wrong

    def sample(self, kind: str, value: int) -> None:
        self.samples.setdefault(kind, []).append(int(value))

    def expected(self, model: generator.HeapModel) -> list[bytes]:
        if self.corrupt_expected:
            return [bytes(b ^ 0xFF for b in page) for page in model.pages]
        return list(model.pages)

    # -- phases ----------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError


# --- world building -----------------------------------------------------------


def store_world(cache_bytes=None):
    """One machine, one multi-queue NVMe device, one object store."""
    kernel = Kernel(hostname="e2e", memory_bytes=4 * GIB)
    device = NvmeDevice(kernel.clock, spec=DEVICE_SPEC, name="e2e-nvme")
    sls = SLS(kernel)
    store = ObjectStore(device, mem=kernel.mem, cache_bytes=cache_bytes)
    backend = DiskBackend(BACKEND, store)
    backend.bind(kernel)
    return kernel, device, sls, store, backend


def heap_app(kernel: Kernel, pages: list[bytes], name: str = "app"):
    """A process whose heap holds exactly the generated ``pages``."""
    proc = kernel.spawn(name)
    sysc = Syscalls(kernel, proc)
    heap = sysc.mmap(len(pages) * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, len(pages) * PAGE_SIZE, fill_fn=pages.__getitem__)
    return proc, sysc, heap


def apply_writes(sysc: Syscalls, heap, writes) -> None:
    base = heap.start
    poke = sysc.poke
    for page, offset, data in writes:
        poke(base + page * PAGE_SIZE + offset, data)


def read_region(kernel: Kernel, proc, name: str = "heap") -> list[bytes]:
    """Every page of ``proc``'s mapping ``name``, through the fault path."""
    entry = next(e for e in proc.aspace.entries if e.name == name)
    peek = Syscalls(kernel, proc).peek
    return [
        peek(addr, PAGE_SIZE)
        for addr in range(entry.start, entry.end, PAGE_SIZE)
    ]


def mismatches(got: list[bytes], want: list[bytes]) -> int:
    return sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))


def device_counts(device) -> dict[str, int]:
    stats = device.stats
    busy = [queue.busy_ns for queue in stats.queues]
    skew = (max(busy) - min(busy)) * 1000 // max(busy) if max(busy) else 0
    return {
        "hw.device.writes": stats.writes,
        "hw.device.reads": stats.reads,
        "hw.device.bytes_written": stats.bytes_written,
        "hw.device.bytes_read": stats.bytes_read,
        "hw.device.doorbells": stats.doorbells,
        "hw.device.submit_stall_ns": stats.submit_stall_ns,
        "hw.device.busy_ns": stats.busy_ns,
        "hw.device.queue_skew_permille": skew,
    }


def store_counts(store: ObjectStore) -> dict[str, int]:
    stats = store.stats
    cache = store.pagecache
    pages = stats.pages_written + stats.pages_deduped
    return {
        "objstore.store.pages_written": stats.pages_written,
        "objstore.store.pages_deduped": stats.pages_deduped,
        "objstore.store.meta_records_written": stats.meta_records_written,
        "objstore.store.snapshots_committed": stats.snapshots_committed,
        "objstore.store.snapshots_deleted": stats.snapshots_deleted,
        "objstore.store.batches_flushed": stats.batches_flushed,
        "objstore.store.batch_extents": stats.batch_extents,
        "objstore.dedup.hit_permille":
            stats.pages_deduped * 1000 // pages if pages else 0,
        "objstore.codec.pages_raw":
            stats.pages_written - stats.pages_compressed - stats.pages_delta,
        "objstore.codec.pages_compressed": stats.pages_compressed,
        "objstore.codec.pages_delta": stats.pages_delta,
        "objstore.codec.encoded_bytes_saved": stats.encoded_bytes_saved,
        "objstore.pagecache.hits": cache.hits,
        "objstore.pagecache.misses": cache.misses,
        "objstore.pagecache.evictions": cache.evictions,
        "objstore.pagecache.hit_permille": cache.hit_rate_permille,
        "objstore.pagecache.resident_bytes": cache.bytes_cached,
        "objstore.gc.garbage_backlog_bytes":
            sum(extent.length for extent in store.garbage),
    }


def kernel_counts(kernel: Kernel, sls: SLS, group_name: str = "") -> dict[str, int]:
    cow = kernel.cow.stats
    pipelined = kernel.obs.registry.counter(
        obs_names.C_CKPT_PIPELINED, group=group_name
    ).value if group_name else 0
    return {
        "mem.cow.pages_frozen": cow.pages_frozen,
        "mem.cow.faults": cow.cow_faults,
        "mem.cow.pte_updates": cow.pte_updates,
        "core.orchestrator.checkpoints_pipelined": int(pipelined),
        "core.scheduler.tickets_rejected": sls.scheduler.tickets_rejected,
        "core.scheduler.slo_violations": sls.scheduler.slo_violations,
    }


def amplification(counts: dict, *, device_bytes: int, user_bytes: int,
                  physical_bytes: int, logical_bytes: int) -> None:
    """Device bytes per user byte dirtied, and media bytes per live
    logical byte, both x1000 (manifests, directory and superblocks
    included — they are what the device was actually asked to write)."""
    counts["write_amp_x1000"] = device_bytes * 1000 // max(1, user_bytes)
    counts["space_amp_x1000"] = physical_bytes * 1000 // max(1, logical_bytes)


class RebootAudit:
    """The durability oracle shared by ``ckpt_stream`` and ``crash_recover``.

    After ``device.crash()`` a fresh store must recover exactly the
    acknowledged snapshots (``before``/``after`` bracket what an
    un-barriered operation may or may not have made durable), fsck and
    scrub must be clean, and the newest acknowledged image, loaded from
    nothing but the device and restored into a fresh kernel, must match
    the generator's model page for page.
    """

    def __init__(self, workload: Workload, kernel: Kernel, device):
        self.w = workload
        self.kernel = kernel
        self.device = device

    def recover(self, before: set[str], after: set[str]) -> ObjectStore:
        w = self.w
        store = ObjectStore(self.device, mem=self.kernel.mem)
        store.recover()
        names = {snap.name for snap in store.snapshots()}
        w.check(
            (before & after) <= names <= (before | after),
            f"recover: lost {sorted((before & after) - names)}, "
            f"invented {sorted(names - (before | after))}",
        )
        return store

    def clean(self, store: ObjectStore) -> None:
        report = check_store(store)
        self.w.check(report.clean, f"fsck: {report.counts()}")
        scrub = Scrubber(store).run()
        self.w.check(scrub.errors == 0, f"scrub: {scrub.errors} errors")

    def restore_newest(self, store: ObjectStore, name: str,
                       model: generator.HeapModel) -> None:
        w = self.w
        snapshot = store.snapshot_by_name(name)
        w.check(snapshot is not None, f"newest acknowledged {name!r} not recovered")
        if snapshot is None:
            return
        rebooted = Kernel(hostname="e2e-reboot", memory_bytes=4 * GIB,
                          clock=self.kernel.clock)
        try:
            image = load_image_from_store(store, snapshot, BACKEND)
            procs, _metrics = SLS(rebooted).restore(
                image, backend_name=BACKEND, store=store
            )
            got = read_region(rebooted, procs[0])
        except AuroraError as exc:
            w.check(False, f"post-reboot restore: {type(exc).__name__}: {exc}")
            return
        want = w.expected(model)
        w.audit_checked += len(want)
        if w.tolerate_postreboot_restore:
            w.audit_wrong += mismatches(got, want)
        else:
            w.audit_wrong += w.check_pages(got, want, "post-reboot restore")


# --- ckpt_stream ---------------------------------------------------------------


class CkptStream(Workload):
    """Incremental checkpoints on a fixed 100 Hz sim-time schedule.

    Open loop in sim time: each checkpoint is due at a fixed instant,
    flush lag is timed from that instant, nothing waits for durability
    between checkpoints.  Default retention, so the run crosses >= 14
    forced consolidating full checkpoints.
    """

    name = "ckpt_stream"

    def setup(self) -> None:
        self.pages = self.size(1024)
        self.checkpoints = self.size(240, floor=240)
        writes = self.size(150)
        heap = generator.heap_pages(self.seed, self.name, self.pages)
        # one batch more than checkpoints: the oracle's in-flight interval
        self.intervals = generator.write_intervals(
            self.seed, self.name, intervals=self.checkpoints + 1,
            writes=writes, pages=self.pages,
        )
        self.model = generator.HeapModel(heap)
        self.lap()
        (self.kernel, self.device, self.sls,
         self.store, backend) = store_world()
        self.bind_clock(self.kernel.clock)
        proc, self.sysc, self.heap = heap_app(self.kernel, heap)
        self.group = self.sls.persist(proc, name="stream")
        self.group.attach(backend)
        self.lap()
        self.sls.checkpoint(self.group, name="prime")
        self.sls.barrier(self.group)

    def run(self) -> None:
        kernel, sls, group = self.kernel, self.sls, self.group
        clock = kernel.clock
        bytes_before = self.device.stats.bytes_written
        captured = 0
        backlog = 0
        start = clock.now
        for k in range(self.checkpoints):
            due = start + (k + 1) * PERIOD_NS
            apply_writes(self.sysc, self.heap, self.intervals[k])
            if clock.now < due:
                kernel.run_for(due - clock.now)
            self.late.append(clock.now - due)
            backlog = max(backlog, self.device.pending_writes())
            image = self.op("checkpoint", sls.checkpoint, group, name=f"ckpt-{k}")
            if image is FAILED:
                continue
            captured += image.metrics.pages_captured
            self.sample("ckpt_stop", image.metrics.stop_time_ns)
            image.on_durable(
                lambda img, due=due: self.sample(
                    "flush_lag", img.metrics.durable_at_ns - due
                )
            )
        sls.barrier(group)
        self.counts.update(device_counts(self.device))
        self.counts.update(store_counts(self.store))
        self.counts.update(kernel_counts(kernel, sls, group.name))
        self.counts["core.orchestrator.flush_backlog_max"] = backlog
        amplification(
            self.counts,
            device_bytes=self.device.stats.bytes_written - bytes_before,
            user_bytes=captured * PAGE_SIZE,
            physical_bytes=self.store.physical_bytes(),
            logical_bytes=group.latest_image.logical_bytes(),
        )

    def verify(self) -> None:
        for batch in self.intervals[:self.checkpoints]:
            self.model.apply(batch)
        newest = self.group.latest_image.name
        before = {snap.name for snap in self.store.snapshots()}
        # One more checkpoint, deliberately not barriered, then the cut.
        apply_writes(self.sysc, self.heap, self.intervals[self.checkpoints])
        self.attempt("in-flight checkpoint", self.sls.checkpoint, self.group,
                     name="inflight")
        after = {snap.name for snap in self.store.snapshots()}
        self.device.crash()
        audit = RebootAudit(self, self.kernel, self.device)
        store = audit.recover(before, after)
        audit.clean(store)
        audit.restore_newest(store, newest, self.model)


# --- restore_mix ---------------------------------------------------------------


class RestoreMix(Workload):
    """Eager and lazy restores of an image four times the page cache.

    The image is 1 full + 6 incremental checkpoints (deliberately below
    retention, so what is timed is a correct restore).  Each round
    restores it eagerly into a fresh kernel, then lazily with prefetch
    off and faults every page once in a seeded shuffle.  Closed loop.
    """

    name = "restore_mix"
    ROUNDS = 6
    INCREMENTS = 6

    def setup(self) -> None:
        self.pages = self.size(2048)
        self.rounds = self.ROUNDS
        increments = self.INCREMENTS
        writes = self.size(600)
        heap = generator.heap_pages(self.seed, self.name, self.pages)
        intervals = generator.write_intervals(
            self.seed, self.name, intervals=increments, writes=writes,
            pages=self.pages,
        )
        self.orders = [
            generator.shuffled(self.seed, self.name, f"faults-{r}", self.pages)
            for r in range(self.rounds)
        ]
        self.model = generator.HeapModel(heap)
        self.lap()
        (self.kernel, self.device, self.sls, self.store,
         backend) = store_world(cache_bytes=self.pages * PAGE_SIZE // 4)
        self.bind_clock(self.kernel.clock)
        proc, sysc, region = heap_app(self.kernel, heap)
        group = self.sls.persist(proc, name="mix")
        group.attach(backend)
        self.lap()
        self.sls.checkpoint(group, name="full")
        self.sls.barrier(group)
        for index, batch in enumerate(intervals):
            self.lap()
            apply_writes(sysc, region, batch)
            self.model.apply(batch)
            self.sls.checkpoint(group, name=f"incr-{index}")
            self.sls.barrier(group)
        self.snapshot = self.store.snapshot_by_name(f"incr-{increments - 1}")
        self.heap_start = region.start
        self.eager: list = []
        self.lazy: list[list] = []

    def _fresh_sls(self, label: str):
        kernel = Kernel(hostname=f"e2e-{label}", memory_bytes=4 * GIB,
                        clock=self.kernel.clock)
        return kernel, SLS(kernel)

    def _eager(self, sls: SLS):
        image = load_image_from_store(self.store, self.snapshot, BACKEND)
        return sls.restore(image, backend_name=BACKEND, store=self.store)

    def _lazy(self, sls: SLS):
        image = load_image_from_store(self.store, self.snapshot, BACKEND)
        return sls.restore(image, backend_name=BACKEND, store=self.store,
                           lazy=True, prefetch="off")

    def run(self) -> None:
        clock = self.kernel.clock
        for round_no in range(self.rounds):
            kernel, sls = self._fresh_sls(f"eager-{round_no}")
            begin = clock.now
            done = self.op("restore", self._eager, sls)
            if done is not FAILED:
                self.sample("restore", clock.now - begin)
                self.eager.append((kernel, done[0][0]))
            kernel, sls = self._fresh_sls(f"lazy-{round_no}")
            begin = clock.now
            done = self.op("lazy_restore", self._lazy, sls)
            if done is FAILED:
                continue
            self.sample("lazy_restore", clock.now - begin)
            peek = Syscalls(kernel, done[0][0]).peek
            got: list = [None] * self.pages
            for page in self.orders[round_no]:
                begin = clock.now
                content = self.op(
                    "fault", peek, self.heap_start + page * PAGE_SIZE, PAGE_SIZE
                )
                if content is not FAILED:
                    self.sample("fault", clock.now - begin)
                    got[page] = content
            self.lazy.append(got)
        self.counts.update(device_counts(self.device))
        self.counts.update(store_counts(self.store))
        self.counts.update(kernel_counts(self.kernel, self.sls))

    def verify(self) -> None:
        want = self.expected(self.model)
        for kernel, proc in self.eager:
            self.check_pages(read_region(kernel, proc), want, "eager restore")
        for got in self.lazy:
            self.check_pages(got, want, "lazy restore")


# --- fleet_storm ---------------------------------------------------------------


class FleetStorm(Workload):
    """Deploy a fleet of customised functions on one store, then an
    open-loop invocation storm.

    Arrivals are scheduled by the benchmark on the kernel's event queue
    (seeded exponential gaps, Zipf targets); a cold start is timed from
    the instant the request was due, so a stalled predecessor costs its
    successors, and the generator's lateness is reported.
    """

    name = "fleet_storm"
    #: 1000 arrivals per sim second: about 40 % of what one restore at a
    #: time can serve, so the backlog does not grow (the issue's 100 us
    #: is 3.6x what the seed commit can serve: only queue length shows)
    MEAN_GAP_NS = 1_000_000
    #: throw-away functions deployed and invoked once during set-up, so
    #: the timed region starts with the shared runtime image cache-resident
    WARMUP = 24

    def setup(self) -> None:
        self.functions = self.size(500, floor=200)
        invocations = self.size(1200, floor=1000)
        self.custom = generator.blobs(
            self.seed, self.name, "custom", count=self.functions, size=32
        )
        warm = generator.blobs(
            self.seed, self.name, "warmup", count=self.WARMUP, size=32
        )
        self.arrivals = generator.arrivals(
            self.seed, self.name, count=invocations,
            mean_gap_ns=self.MEAN_GAP_NS, targets=self.functions,
        )
        self.lap()
        (self.kernel, self.device, self.sls,
         self.store, backend) = store_world()
        self.bind_clock(self.kernel.clock)
        self.manager = ServerlessManager(self.sls, backend=backend)
        self.lap()
        # priming: the bare runtime image every function is a small delta
        # over, then a few throw-away functions deployed and invoked once
        self.manager.deploy("runtime")
        for index, blob in enumerate(warm):
            self.lap()
            self.manager.deploy(f"warm-{index:02d}", customize=blob)
            self.manager.invoke(f"warm-{index:02d}", payload=b"warm")
        self.primed = 1 + self.WARMUP
        self.primed_bytes = self.device.stats.bytes_written
        self.outputs: list = [None] * invocations

    @staticmethod
    def fn_name(index: int) -> str:
        return f"fn-{index:04d}"

    def run(self) -> None:
        kernel, manager = self.kernel, self.manager
        clock = kernel.clock
        captured = 0
        for index in range(self.functions):
            deployed = self.op(
                "deploy", manager.deploy, self.fn_name(index),
                customize=self.custom[index],
            )
            if deployed is FAILED:
                continue
            captured += deployed.image.metrics.pages_captured
            self.sample("ckpt_stop", deployed.image.metrics.stop_time_ns)
        # one lag per durable ticket, in order; set-up's come first
        lags = self.sls.scheduler.completed_lags.get("default", ())
        for lag in lags[self.primed:]:
            self.sample("flush_lag", lag)

        def fire(index: int, due: int) -> None:
            arrival = self.arrivals[index]
            self.late.append(clock.now - due)
            result = self.op(
                "invoke", manager.invoke, self.fn_name(arrival.target),
                payload=arrival.payload,
            )
            if result is not FAILED:
                self.sample("cold_start", clock.now - due)
                self.outputs[index] = result.output

        when = clock.now
        for index, arrival in enumerate(self.arrivals):
            when += arrival.gap_ns
            kernel.events.schedule(
                when, lambda index=index, due=when: fire(index, due)
            )
        kernel.events.run_until(when)
        self.counts.update(device_counts(self.device))
        self.counts.update(store_counts(self.store))
        self.counts.update(kernel_counts(kernel, self.sls))
        amplification(
            self.counts,
            device_bytes=self.device.stats.bytes_written - self.primed_bytes,
            user_bytes=captured * PAGE_SIZE,
            physical_bytes=self.store.physical_bytes(),
            logical_bytes=sum(
                f.image.logical_bytes() for f in manager.functions.values()
            ),
        )

    def verify(self) -> None:
        for arrival, output in zip(self.arrivals, self.outputs):
            if output is not None and output != b"hello, " + arrival.payload:
                self.fail(f"invoke {arrival.target}: wrong output {output[:32]!r}")
        # Page-level: a seeded sample of functions, restored lazily, must
        # read back the code pages the generator customised them with.
        rng = generator.rng_for(self.seed, self.name, "verify")
        picks = rng.sample(range(self.functions), min(8, self.functions))
        for index in picks:
            name = self.fn_name(index)
            deployed = self.manager.functions.get(name)
            if deployed is None:
                continue  # the deploy already counted as failed
            try:
                procs, _metrics = self.sls.restore(
                    deployed.image, backend_name=BACKEND, lazy=True,
                    new_instance=True, name_suffix="#verify",
                )
                got = read_region(self.kernel, procs[0], "fn-code")
            except AuroraError as exc:
                self.check(False, f"verify {name}: {type(exc).__name__}: {exc}")
                continue
            blob = self.custom[index]
            if self.corrupt_expected:
                blob = blob[::-1]
            want = [
                (b"%s:%d:%s" % (name.encode(), page, blob)).ljust(PAGE_SIZE, b"\0")
                for page in range(64 * KIB // PAGE_SIZE)
            ]
            self.check_pages(got, want, f"verify {name} code")


# --- crash_recover -------------------------------------------------------------


class CrashRecover(Workload):
    """Power-cut, then the four walkers: recover, fsck, scrub, GC.

    Set-up builds a store with 36 acknowledged checkpoints (two
    consolidations, so pruning has run) plus one un-barriered in-flight
    checkpoint, and cuts power.  Each timed cycle opens a fresh store on
    the device, recovers, checks, scrubs, deletes the three oldest
    snapshots, collects garbage, and cuts power again.  Closed loop.
    """

    name = "crash_recover"
    #: two consolidations' worth of checkpoints, and the timed cycles:
    #: what the workload is, not how big it is — never scaled
    CHECKPOINTS = 36
    CYCLES = 2

    def setup(self) -> None:
        self.pages = self.size(1024)
        self.checkpoints = self.CHECKPOINTS
        self.cycles = self.CYCLES
        writes = self.size(150)
        heap = generator.heap_pages(self.seed, self.name, self.pages)
        # checkpoint 0 is the full image of the generated heap; every later
        # one (and the in-flight one) follows an interval of writes
        intervals = generator.write_intervals(
            self.seed, self.name, intervals=self.checkpoints,
            writes=writes, pages=self.pages,
        )
        self.model = generator.HeapModel(heap)
        self.lap()
        (self.kernel, self.device, sls, store, backend) = store_world()
        self.bind_clock(self.kernel.clock)
        proc, sysc, region = heap_app(self.kernel, heap)
        group = sls.persist(proc, name="victim")
        group.attach(backend)
        captured = 0
        backlog = 0
        for index in range(self.checkpoints):
            self.lap()
            if index:
                apply_writes(sysc, region, intervals[index - 1])
                self.model.apply(intervals[index - 1])
            backlog = max(backlog, self.device.pending_writes())
            image = sls.checkpoint(group, name=f"ckpt-{index}")
            sls.barrier(group)
            captured += image.metrics.pages_captured
        self.newest = group.latest_image.name
        self.live_logical = group.latest_image.logical_bytes()
        self.before = {snap.name for snap in store.snapshots()}
        apply_writes(sysc, region, intervals[-1])
        sls.checkpoint(group, name="inflight")
        self.after = {snap.name for snap in store.snapshots()}
        self.user_bytes = captured * PAGE_SIZE
        self.setup_counts = store_counts(store)
        self.setup_counts.update(kernel_counts(self.kernel, sls, group.name))
        self.setup_counts["core.orchestrator.flush_backlog_max"] = backlog
        self.device.crash()
        self.audit = RebootAudit(self, self.kernel, self.device)
        self.expect: list[tuple[set, set, set]] = []

    def _maintain(self, store: ObjectStore):
        report = check_store(store)
        self.lap()
        scrub = Scrubber(store).run()
        self.lap()
        doomed = [snap for snap in store.snapshots()
                  if snap.name != self.newest][:3]
        for snap in doomed:
            store.delete_snapshot(snap.snap_id)
        store.flush_barrier()
        freed = GarbageCollector(store).collect()
        return report, scrub, freed, {snap.name for snap in doomed}

    def run(self) -> None:
        clock = self.kernel.clock
        # write-side counts come from the store that did the writing
        # (set-up); the walkers' own are summed over the boots
        counts = self.counts
        counts.update(self.setup_counts)
        for key in ("objstore.gc.extents_freed", "objstore.gc.bytes_freed",
                    "objstore.scrub.extents_verified", "objstore.scrub.errors",
                    "objstore.fsck.pages_verified", "objstore.fsck.findings"):
            counts[key] = 0
        before, after = self.before, self.after
        store = None
        for _cycle in range(self.cycles):
            store = ObjectStore(self.device, mem=self.kernel.mem)
            begin = clock.now
            if self.op("recover", store.recover) is FAILED:
                continue
            self.sample("recover", clock.now - begin)
            names = {snap.name for snap in store.snapshots()}
            self.expect.append((before & after, before | after, names))
            begin = clock.now
            done = self.op("maintain", self._maintain, store)
            if done is FAILED:
                continue
            self.sample("maintain", clock.now - begin)
            fsck, scrub, freed, doomed = done
            counts["objstore.fsck.pages_verified"] += fsck.pages_verified
            counts["objstore.fsck.findings"] += len(fsck.findings)
            counts["objstore.scrub.extents_verified"] += scrub.extents_verified
            counts["objstore.scrub.errors"] += scrub.errors
            counts["objstore.gc.extents_freed"] += freed.extents_freed
            counts["objstore.gc.bytes_freed"] += freed.bytes_freed
            counts["objstore.store.snapshots_deleted"] += len(doomed)
            # The deletes were barriered: the next boot must see exactly
            # what is in the directory now.
            before = after = names - doomed
            self.device.crash()
        self.survivors = before
        counts.update(device_counts(self.device))
        if store is not None:
            last_boot = store_counts(store)
            for key in last_boot:
                if key.startswith(("objstore.pagecache.", "objstore.gc.")):
                    counts[key] = last_boot[key]
            amplification(
                counts,
                device_bytes=self.device.stats.bytes_written,
                user_bytes=self.user_bytes,
                physical_bytes=store.physical_bytes(),
                logical_bytes=self.live_logical,
            )

    def verify(self) -> None:
        for must, may, names in self.expect:
            self.check(
                must <= names <= may,
                f"recover: lost {sorted(must - names)}, "
                f"invented {sorted(names - may)}",
            )
        self.check(self.counts["objstore.fsck.findings"] == 0,
                   "fsck reported findings")
        self.check(self.counts["objstore.scrub.errors"] == 0,
                   "scrub reported errors")
        store = self.audit.recover(self.survivors, self.survivors)
        self.audit.clean(store)
        self.audit.restore_newest(store, self.newest, self.model)


# --- mem_tree ------------------------------------------------------------------


class MemTree(Workload):
    """A nine-process tree checkpointed to memory only.

    A root forks eight workers that share its heap copy-on-write and
    talk to it over socket pairs; every tick one worker dirties a few
    pages and does an IPC round trip, then the whole tree is
    checkpointed to a :class:`MemoryBackend`.  Every tenth tick a new
    instance is restored from the newest image, audited, and reaped.
    No object store, no device: the control on which every store or
    device optimisation must predict no change.  Closed loop.
    """

    name = "mem_tree"
    WORKERS = 8

    def setup(self) -> None:
        self.pages = self.size(256)
        self.ticks = self.size(1500, floor=200)
        writes = self.size(24)
        heap = generator.heap_pages(self.seed, self.name, self.pages)
        self.intervals = generator.write_intervals(
            self.seed, self.name, intervals=self.ticks, writes=writes,
            pages=self.pages, bursty=True,
        )
        self.lap()
        self.kernel = kernel = Kernel(hostname="e2e", memory_bytes=4 * GIB)
        self.bind_clock(kernel.clock)
        self.sls = SLS(kernel)
        root, self.root_sys, self.heap = heap_app(kernel, heap, name="tree")
        self.links = []
        for _worker in range(self.WORKERS):
            # fds are inherited across fork: the root keeps one end, the
            # worker it forks next uses the other
            root_fd, worker_fd = self.root_sys.socketpair()
            child = self.root_sys.fork()
            self.lap()
            self.links.append((root_fd, worker_fd, Syscalls(kernel, child)))
        self.group = self.sls.persist(root, name="tree")
        self.group.attach(MemoryBackend("memory"))
        # one reference heap per process: the root's, then each worker's
        self.models = [generator.HeapModel(heap) for _ in range(self.WORKERS + 1)]
        self.restored = 0
        self.audited_through = 0

    def _tick(self, tick: int) -> None:
        worker = tick % self.WORKERS
        root_fd, worker_fd, worker_sys = self.links[worker]
        apply_writes(worker_sys, self.heap, self.intervals[tick])
        self.root_sys.write(root_fd, b"tick-%06d" % tick)
        request = worker_sys.read(worker_fd, 64)
        worker_sys.write(worker_fd, b"ack:" + request)
        self.root_sys.read(root_fd, 64)

    def _restore(self, serial: int):
        return self.sls.restore(
            self.group.latest_image, new_instance=True, name_suffix=f"#{serial}"
        )

    def run(self) -> None:
        kernel, sls, group = self.kernel, self.sls, self.group
        clock = kernel.clock
        for tick in range(self.ticks):
            self._tick(tick)
            image = self.op("checkpoint", sls.checkpoint, group)
            if image is not FAILED:
                self.sample("ckpt_stop", image.metrics.stop_time_ns)
            if tick % 10 != 9:
                continue
            begin = clock.now
            done = self.op("restore", self._restore, tick)
            if done is FAILED:
                continue
            self.sample("restore", clock.now - begin)
            procs = done[0]
            with self.untimed():
                self._audit(tick, procs)
            for proc in procs:
                kernel.exit(proc)
                kernel.reap(proc)
        self.counts.update(kernel_counts(kernel, sls, group.name))

    def _audit(self, tick: int, procs: list) -> None:
        """Compare the instance just restored with the models."""
        for done in range(self.audited_through, tick + 1):
            self.models[1 + done % self.WORKERS].apply(self.intervals[done])
        self.audited_through = tick + 1
        self.check(len(procs) == self.WORKERS + 1,
                   f"restore@{tick}: {len(procs)} processes")
        for proc, model in zip(procs, self.models):
            self.check_pages(read_region(self.kernel, proc), self.expected(model),
                             f"restore@{tick} pid {proc.pid}")
        self.restored += 1

    def verify(self) -> None:
        self.check(self.restored == self.ticks // 10,
                   f"{self.restored} restores audited")


WORKLOADS = {
    cls.name: cls
    for cls in (CkptStream, RestoreMix, FleetStorm, CrashRecover, MemTree)
}
assert tuple(WORKLOADS) == WORKLOAD_NAMES
