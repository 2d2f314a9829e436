"""The benchmark's own tracer: spans around the program's public entry
points, recorded from outside the program.

A traced pass installs wrappers around the entry points in
:data:`ENTRY_POINTS` (every ``repro.*`` module attribute that *is* the
original function is rebound, because ``fletcher64``, ``encode``,
``capture_pages_to_store`` ... are imported by name into other
modules) and removes them again on exit.  Each wrapped call is a span
on two clocks: **host** (``time.perf_counter``) and **sim** (the
world's ``SimClock.now``, integer ns).  A span's *self* time is its
duration minus the part its child spans cover, so per-layer self times
add up to the enclosing span exactly — on the sim clock with no
rounding at all.

Workloads open an *operation* span around each user-visible operation
(one checkpoint, restore, fault, recover, deploy, invoke).  Self times
accumulate per layer and per operation as spans close; raw span
records are kept only when asked for (``keep_spans``), and nothing is
written anywhere until the run is over.

Only public functions are wrapped; spans inside the program are a
later change.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Callable, Optional

#: layer of a workload's root span and of operation spans: time here is
#: not inside any wrapped entry point
ROOT = "bench.root"
OPERATION = "bench.op"
GENERATOR = "bench.generator"

#: (layer, module, dotted attribute) of every wrapped entry point
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("core.orchestrator", "repro.core.orchestrator", "SLS.checkpoint"),
    ("core.orchestrator", "repro.core.orchestrator", "SLS.barrier"),
    ("core.restore", "repro.core.restore", "load_image_from_store"),
    ("core.restore", "repro.core.orchestrator", "SLS.restore"),
    ("core.scheduler", "repro.core.scheduler", "CheckpointScheduler.submit"),
    ("serial.procsnap", "repro.serial.procsnap", "serialize_group"),
    ("serial.procsnap", "repro.serial.procsnap", "restore_group"),
    ("serial.memsnap", "repro.serial.memsnap", "capture_pages_to_store"),
    ("serial.memsnap", "repro.serial.memsnap", "capture_pages_to_memory"),
    ("serial.memsnap", "repro.serial.memsnap", "install_store_pages"),
    ("serial.memsnap", "repro.serial.memsnap", "install_memory_pages"),
    ("serial.memsnap", "repro.serial.memsnap", "make_store_pager"),
    ("mem.cow", "repro.mem.cow", "AuroraCow.freeze"),
    ("mem.cow", "repro.mem.cow", "AuroraCow.resolve_frozen_write"),
    ("mem.address_space", "repro.mem.address_space", "AddressSpace.fault"),
    ("mem.address_space", "repro.mem.address_space", "AddressSpace.read"),
    ("mem.address_space", "repro.mem.address_space", "AddressSpace.write"),
    ("mem.address_space", "repro.mem.address_space", "AddressSpace.populate"),
    ("objstore.store.write", "repro.objstore.store", "ObjectStore.write_page"),
    ("objstore.store.write", "repro.objstore.store", "ObjectStore.write_meta"),
    ("objstore.store.write", "repro.objstore.store", "WriteBatch.flush"),
    ("objstore.store.commit", "repro.objstore.store", "ObjectStore.commit_snapshot"),
    ("objstore.store.commit", "repro.objstore.store", "ObjectStore.delete_snapshot"),
    ("objstore.store.read", "repro.objstore.store", "ObjectStore.read_page"),
    ("objstore.store.read", "repro.objstore.store", "ObjectStore.read_pages_coalesced"),
    ("objstore.store.read", "repro.objstore.store", "ObjectStore.prefetch_pages"),
    ("objstore.store.read", "repro.objstore.store", "ObjectStore.load_manifest"),
    ("objstore.store.read", "repro.objstore.store", "ObjectStore.read_meta"),
    ("objstore.store.recover", "repro.objstore.store", "ObjectStore.recover"),
    ("objstore.checksum", "repro.objstore.checksum", "fletcher64"),
    ("objstore.checksum", "repro.objstore.checksum", "verify"),
    ("objstore.record", "repro.objstore.record", "encode"),
    ("objstore.record", "repro.objstore.record", "decode"),
    ("objstore.record", "repro.objstore.record", "pack_record"),
    ("objstore.record", "repro.objstore.record", "unpack_record"),
    ("objstore.codec", "repro.objstore.codec", "PageCodec.plan"),
    ("objstore.codec", "repro.objstore.codec", "PageCodec.decode_page"),
    ("objstore.pagecache", "repro.objstore.pagecache", "PageCache.get"),
    ("objstore.pagecache", "repro.objstore.pagecache", "PageCache.put"),
    ("objstore.fsck", "repro.objstore.fsck", "check_store"),
    ("objstore.scrub", "repro.objstore.scrub", "Scrubber.run"),
    ("objstore.gc", "repro.objstore.gc", "GarbageCollector.collect"),
    ("hw.device", "repro.hw.device", "StorageDevice.read"),
    ("hw.device", "repro.hw.device", "StorageDevice.read_async"),
    ("hw.device", "repro.hw.device", "StorageDevice.write"),
    ("hw.device", "repro.hw.device", "StorageDevice.write_async"),
    ("hw.device", "repro.hw.device", "StorageDevice.write_batch"),
    ("hw.device", "repro.hw.device", "StorageDevice.flush_barrier"),
    ("apps.serverless", "repro.apps.serverless", "ServerlessManager.deploy"),
    ("apps.serverless", "repro.apps.serverless", "ServerlessManager.invoke"),
    ("sim.event", "repro.sim.event", "EventQueue.run_until"),
    (GENERATOR, "generator", "heap_pages"),
    (GENERATOR, "generator", "write_intervals"),
    (GENERATOR, "generator", "arrivals"),
    (GENERATOR, "generator", "shuffled"),
    (GENERATOR, "generator", "blobs"),
)

#: every layer the per-layer report names, in print order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))

#: byte meters: traced count -> (module, attribute, bytes of one call)
_METERS: dict[tuple[str, str], tuple[str, Callable]] = {
    ("repro.objstore.checksum", "fletcher64"):
        ("objstore.checksum.bytes", lambda args, result: len(args[0])),
    ("repro.objstore.record", "encode"):
        ("objstore.record.encode_bytes", lambda args, result: len(result)),
    ("repro.objstore.record", "decode"):
        ("objstore.record.decode_bytes", lambda args, result: len(args[0])),
}

#: device bytes written while a commit/delete span is open, less what a
#: nested batch flush wrote (page data): the manifest / directory /
#: superblock cost of naming or un-naming a snapshot
_COMMIT_BYTES = "objstore.store.commit.bytes_written"
#: internal running total of device bytes written inside batch flushes
_FLUSH_BYTES = "_flush_bytes"


def _is_traced_module(name: str) -> bool:
    return name == "repro" or name.startswith("repro.") or name in (
        "generator", "workloads",
    )


class Operation:
    """One finished operation: its kind, duration on both clocks, and
    the self time of every layer beneath it."""

    __slots__ = ("kind", "host_s", "sim_ns", "layers")

    def __init__(self, kind: str):
        self.kind = kind
        self.host_s = 0.0
        self.sim_ns = 0
        #: layer -> [host self s, sim self ns]
        self.layers: dict[str, list] = {}


class Tracer:
    """Span recorder for one pass (install → run → uninstall)."""

    def __init__(self, keep_spans: bool = False):
        #: the current world's SimClock (set by the workload)
        self.clock = None
        self.keep_spans = keep_spans
        #: region -> layer -> [calls, host self s, sim self ns]
        self.totals: dict[str, dict[str, list]] = {}
        #: region -> (host s, sim ns, host self s, sim self ns) of its root
        self.roots: dict[str, tuple] = {}
        self.operations: list[Operation] = []
        #: region -> traced counts (byte meters, sim residual)
        self.region_counts: dict[str, dict[str, int]] = {}
        #: the open region's counts
        self.counts: dict[str, int] = {}
        #: raw spans (layer, parent index, host start/end, sim start/end)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._layers: Optional[dict[str, list]] = None
        self._op: Optional[Operation] = None
        self._region = ""
        self._root: Optional[list] = None
        self._paused: Optional[tuple[float, int]] = None
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _now_sim(self) -> int:
        clock = self.clock
        return clock.now if clock is not None else 0

    def _enter(self, layer: str) -> list:
        # frame: layer, host start, sim start, child host, child sim, index
        index = -1
        if self.keep_spans:
            index = len(self.spans)
            self.spans.append(None)
        frame = [layer, perf_counter(), self._now_sim(), 0.0, 0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> tuple[float, int, float, int]:
        host_end = perf_counter()
        sim_end = self._now_sim()
        stack = self._stack
        top = stack.pop()
        if top is not frame:
            raise RuntimeError("tracer: span closed out of order")
        layer, host_start, sim_start, child_host, child_sim, index = frame
        host = host_end - host_start
        sim = sim_end - sim_start
        host_self = host - child_host
        sim_self = sim - child_sim
        if stack:
            parent = stack[-1]
            parent[3] += host
            parent[4] += sim
        if layer is not ROOT and layer is not OPERATION:
            totals = self._layers
            if totals is not None:
                row = totals.get(layer)
                if row is None:
                    totals[layer] = [1, host_self, sim_self]
                else:
                    row[0] += 1
                    row[1] += host_self
                    row[2] += sim_self
            op = self._op
            if op is not None:
                row = op.layers.get(layer)
                if row is None:
                    op.layers[layer] = [host_self, sim_self]
                else:
                    row[0] += host_self
                    row[1] += sim_self
        if index >= 0:
            parent_index = stack[-1][5] if stack else -1
            self.spans[index] = (
                layer, parent_index, host_start, host_end, sim_start, sim_end
            )
        return host, sim, host_self, sim_self

    # -- regions and operations ---------------------------------------------

    def begin_region(self, name: str) -> None:
        """Open a root span; layer self times accumulate under ``name``."""
        if self._stack:
            raise RuntimeError("tracer: region opened inside a span")
        self._layers = self.totals.setdefault(name, {})
        self.counts = self.region_counts.setdefault(name, {})
        self._region = name
        self._root = self._enter(ROOT)

    def end_region(self) -> None:
        self.roots[self._region] = self._exit(self._root)
        self._layers = None

    def pause(self) -> None:
        """Stop attributing: wrapped calls pass straight through until
        :meth:`resume`, and the interval is cut out of the root span."""
        if len(self._stack) != 1:
            raise RuntimeError("tracer: pause only between operations")
        self._paused = (perf_counter(), self._now_sim())

    def resume(self) -> None:
        host_start, sim_start = self._paused
        self._paused = None
        root = self._stack[0]
        root[1] += perf_counter() - host_start
        root[2] += self._now_sim() - sim_start

    def begin_operation(self, kind: str) -> list:
        if self._op is not None:
            raise RuntimeError("tracer: operations do not nest")
        self._op = Operation(kind)
        return self._enter(OPERATION)

    def end_operation(self, frame: list) -> None:
        op = self._op
        self._op = None
        op.host_s, op.sim_ns, host_self, sim_self = self._exit(frame)
        # Host time inside the operation but outside every wrapped entry
        # point (the benchmark's own bookkeeping) is the root's.
        self._root[3] -= host_self
        # Sim time inside an operation but outside every wrapped entry
        # point: must be zero for the per-layer rows to reconcile.
        self.counts["trace.sim_residual_ns"] = (
            self.counts.get("trace.sim_residual_ns", 0) + sim_self
        )
        self.operations.append(op)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, count=None):
        """``fn`` as a span of ``layer``.  ``count`` is ``(name, before,
        after)``: ``after(args, result) - before(args)`` is added to the
        traced count ``name`` on every call."""
        tracer = self

        if count is None:
            def wrapper(*args, **kwargs):
                if tracer._paused is not None:
                    return fn(*args, **kwargs)
                frame = tracer._enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
        else:
            name, before, after = count

            def wrapper(*args, **kwargs):
                if tracer._paused is not None:
                    return fn(*args, **kwargs)
                start = before(args)
                frame = tracer._enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                counts = tracer.counts
                counts[name] = counts.get(name, 0) + after(args, result) - start
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, module_name: str, dotted: str):
        """The traced count an entry point feeds, if any."""
        if (module_name, dotted) in _METERS:
            name, measure = _METERS[module_name, dotted]
            return name, lambda args: 0, measure
        if dotted == "WriteBatch.flush":
            def written(args, _result=None):
                return args[0].store.device.stats.bytes_written
            return _FLUSH_BYTES, written, written
        if dotted in ("ObjectStore.commit_snapshot", "ObjectStore.delete_snapshot"):
            def named(args, _result=None):
                return (args[0].device.stats.bytes_written
                        - self.counts.get(_FLUSH_BYTES, 0))
            return _COMMIT_BYTES, named, named
        return None

    def _rebind(self, owner: object, attr: str, original: object,
                replacement: object) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every entry point, rebinding each imported-by-name copy."""
        for layer, module_name, dotted in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner: object = module
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if dotted == "make_store_pager":
                # The lazy-restore pager is the closure this returns:
                # trace the page-ins it serves, not its construction.
                def wrapper(*args, _make=original, _layer=layer, **kwargs):
                    return self._wrap(_layer, _make(*args, **kwargs))
            else:
                wrapper = self._wrap(
                    layer, original, self._counted(module_name, dotted)
                )
            if path:
                self._rebind(owner, attr, original, wrapper)
                continue
            for name, candidate in list(sys.modules.items()):
                if candidate is None or not _is_traced_module(name):
                    continue
                for key, value in list(vars(candidate).items()):
                    if value is original:
                        self._rebind(candidate, key, original, wrapper)

    def uninstall(self) -> None:
        """Put every patched binding back (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def layer_rows(self, region: str) -> dict[str, tuple[int, float, int]]:
        """layer -> (calls, host self s, sim self ns) for ``region``."""
        rows = self.totals.get(region, {})
        return {
            layer: tuple(rows.get(layer, (0, 0.0, 0))) for layer in LAYERS
        }

    def median_operation(self, kind: str) -> Optional[Operation]:
        """The operation of ``kind`` with the median sim duration."""
        ops = sorted(
            (op for op in self.operations if op.kind == kind),
            key=lambda op: (op.sim_ns, op.host_s),
        )
        return ops[(len(ops) - 1) // 2] if ops else None
