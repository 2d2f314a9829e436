"""CLI session state: a simulated machine the ``sls`` commands act on.

The real ``sls`` binary talks to a running Aurora kernel; here each
session boots a simulated machine (and a peer machine for send/recv),
launches demo applications, and then executes Table 1 commands against
it.  The session is shared by the interactive shell, script files, and
the canned demo.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.hello import HelloWorldApp
from repro.apps.kvstore import RedisLikeServer
from repro.core.backends import MemoryBackend, make_disk_backend
from repro.core.group import PersistenceGroup
from repro.core.orchestrator import SLS
from repro.core.remote import MigrationReceiver, sls_send
from repro.errors import AuroraError, SlsError
from repro.hw.netdev import NetworkLink
from repro.hw.nvme import NvmeDevice
from repro.objstore.pagecache import FaultOrderLog
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.units import MIB, fmt_size, fmt_time


class SlsSession:
    """One CLI session: a local machine, a remote peer, demo apps."""

    def __init__(self, redis_working_set: int = 64 * MIB):
        self.kernel = Kernel(hostname="aurora0")
        self.sls = SLS(self.kernel)
        self.link = NetworkLink(self.kernel.clock)
        self.local_ep = self.link.attach("aurora0")
        self.remote_kernel = Kernel(hostname="aurora1", clock=self.kernel.clock)
        self.remote_sls = SLS(self.remote_kernel)
        self.remote_ep = self.link.attach("aurora1")
        remote_store = ObjectStore(
            NvmeDevice(self.kernel.clock, name="remote-nvme"),
            mem=self.remote_kernel.mem,
        )
        self.receiver = MigrationReceiver(self.remote_sls, remote_store, self.remote_ep)
        self._apps: dict[str, object] = {}
        self._backends: dict[str, object] = {}
        self._redis_ws = redis_working_set
        #: per-group recorded fault orders (``restore --record-faults``
        #: fills one; ``restore --prefetch=recorded`` replays it)
        self._fault_logs: dict[str, FaultOrderLog] = {}

    # -- app launching -------------------------------------------------------

    def launch(self, app_name: str) -> str:
        if app_name in self._apps:
            return f"app {app_name!r} already running"
        if app_name.startswith("redis"):
            app = RedisLikeServer(
                self.kernel, working_set=self._redis_ws, name=app_name
            )
            app.load_dataset()
        elif app_name.startswith("hello"):
            app = HelloWorldApp(self.kernel, name=app_name)
            app.initialize()
        else:
            raise SlsError(f"unknown demo app {app_name!r} (redis*/hello*)")
        self._apps[app_name] = app
        return f"launched {app_name} (pid {app.pid})"

    def _app(self, name: str):
        app = self._apps.get(name)
        if app is None:
            raise SlsError(f"no app named {name!r}; launch it first")
        return app

    def _group(self, name: str) -> PersistenceGroup:
        group = self.sls.find_group(name)
        if group is None:
            raise SlsError(f"no persistence group {name!r}; run persist first")
        return group

    def _backend(self, name: str):
        backend = self._backends.get(name)
        if backend is None:
            if name.startswith("nvme") or name.startswith("disk"):
                backend = make_disk_backend(
                    self.kernel, NvmeDevice(self.kernel.clock, name=name), name=name
                )
            elif name.startswith("mem"):
                backend = MemoryBackend(name)
            else:
                raise SlsError(f"unknown backend {name!r} (nvme*/disk*/mem*)")
            self._backends[name] = backend
        return backend

    # -- Table 1 commands -----------------------------------------------------------

    def cmd_persist(self, app_name: str, period_us: int = 10_000) -> str:
        """sls persist — add an application to a persistence group."""
        app = self._app(app_name)
        group = self.sls.persist(
            app.proc, name=app_name, period_ns=period_us * 1000
        )
        app.attach_api(self.sls)
        return f"persisting {app_name} as group {group.gid} (period {period_us} us)"

    def cmd_attach(self, group_name: str, backend_name: str) -> str:
        """sls attach — attach a persistence group to a backend."""
        group = self._group(group_name)
        group.attach(self._backend(backend_name))
        return f"attached {backend_name} to {group_name}"

    def cmd_detach(self, group_name: str, backend_name: str) -> str:
        """sls detach — detach a persistence group from a backend."""
        group = self._group(group_name)
        group.detach(backend_name)
        return f"detached {backend_name} from {group_name}"

    @staticmethod
    def _split_flags(args: tuple, verb: str, allowed: set) -> tuple:
        """Separate ``--flag``/``--flag=value`` tokens from positionals."""
        positional, flags = [], {}
        for arg in args:
            if arg.startswith("--"):
                key, _, value = arg[2:].partition("=")
                if key not in allowed:
                    raise SlsError(
                        f"unknown {verb} flag --{key}"
                        f" (expected: {', '.join('--' + a for a in sorted(allowed))})"
                    )
                flags[key] = value if value else True
            else:
                positional.append(arg)
        return positional, flags

    def cmd_checkpoint(self, group_name: str, *args) -> str:
        """sls checkpoint [name] [--full] [--sync] — checkpoint an app."""
        positional, flags = self._split_flags(
            args, "checkpoint", {"full", "sync"}
        )
        if len(positional) > 1:
            raise SlsError("checkpoint takes at most one image name")
        group = self._group(group_name)
        image = self.sls.checkpoint(
            group,
            full=True if flags.get("full") else None,
            name=positional[0] if positional else None,
            sync=bool(flags.get("sync")),
        )
        m = image.metrics
        return (
            f"checkpoint {image.name}: stop {fmt_time(m.stop_time_ns)}"
            f" (metadata {fmt_time(m.metadata_copy_ns)},"
            f" data {fmt_time(m.data_copy_ns)},"
            f" {m.pages_captured} pages)"
        )

    def cmd_restore(self, group_name: str, *args) -> str:
        """sls restore [image] [--lazy] [--backend=NAME]
        [--record-faults] [--prefetch=off|recorded|hot] — restore an app."""
        positional, flags = self._split_flags(
            args, "restore", {"lazy", "backend", "record-faults", "prefetch"}
        )
        if len(positional) > 1:
            raise SlsError("restore takes at most one image name")
        image_name = positional[0] if positional else None
        backend = flags.get("backend")
        if backend is True:
            raise SlsError("--backend needs a value (--backend=nvme0)")
        prefetch = flags.get("prefetch")
        if prefetch is True:
            raise SlsError("--prefetch needs a value (--prefetch=recorded)")
        record_faults = bool(flags.get("record-faults"))
        fault_log = None
        if record_faults or prefetch == "recorded":
            # One log per group: a --record-faults run fills it, a
            # later --prefetch=recorded run of the same group replays it.
            fault_log = self._fault_logs.setdefault(group_name, FaultOrderLog())
        group = self._group(group_name)
        image = (
            group.image_by_name(image_name) if image_name else group.latest_image
        )
        if image is None:
            raise SlsError(f"no image to restore for {group_name!r}")
        procs, metrics = self.sls.restore(
            image,
            backend_name=backend,
            lazy=bool(flags.get("lazy")),
            new_instance=True,
            name_suffix="-restored",
            prefetch=prefetch,
            record_faults=record_faults,
            fault_log=fault_log,
        )
        extra = ""
        if record_faults:
            extra = "; recording fault order"
        elif prefetch == "recorded":
            extra = f"; replayed {len(fault_log)} recorded faults"
        return (
            f"restored {image.name} -> pids {[p.pid for p in procs]}"
            f" in {fmt_time(metrics.total_ns)}"
            f" (read {fmt_time(metrics.objstore_read_ns)},"
            f" memory {fmt_time(metrics.memory_ns)},"
            f" metadata {fmt_time(metrics.metadata_ns)})" + extra
        )

    def cmd_ps(self) -> str:
        """sls ps — list applications in Aurora."""
        rows = self.sls.ps()
        if not rows:
            return "no persisted applications"
        lines = [f"{'GROUP':<16}{'PIDS':<16}{'BACKENDS':<24}{'CKPTS':>6}  MEAN STOP"]
        for row in rows:
            lines.append(
                f"{row['group']:<16}{str(row['pids']):<16}"
                f"{','.join(row['backends']) or '-':<24}"
                f"{row['checkpoints']:>6}  {row['mean_stop_us']:.1f} us"
            )
        return "\n".join(lines)

    def cmd_send(self, group_name: str, image_name: Optional[str] = None) -> str:
        """sls send — send an application to a remote."""
        group = self._group(group_name)
        image = (
            group.image_by_name(image_name) if image_name else group.latest_image
        )
        if image is None:
            raise SlsError(f"group {group_name!r} has no image; checkpoint first")
        nbytes = sls_send(image, self.local_ep, "aurora1")
        return f"sent {image.name} to aurora1 ({fmt_size(nbytes)})"

    def cmd_rollback(self, group_name: str) -> str:
        """sls rollback — roll a group back to its last checkpoint."""
        from repro.core.rollback import rollback

        group = self._group(group_name)
        procs, metrics = rollback(self.sls, group)
        return (
            f"rolled back {group_name} to {group.latest_image.name}"
            f" -> pids {[p.pid for p in procs]}"
            f" in {fmt_time(metrics.total_ns)} (processes notified)"
        )

    def cmd_migrate(self, group_name: str) -> str:
        """sls migrate — live-migrate a group to the remote host."""
        from repro.core.remote import live_migrate

        group = self._group(group_name)
        restored, rep = live_migrate(
            self.sls, group, self.receiver, self.local_ep, "aurora1"
        )
        return (
            f"migrated {group_name} to aurora1 -> pids"
            f" {[p.pid for p in restored]}; {rep.rounds} rounds,"
            f" {fmt_size(rep.bytes_shipped)} on wire,"
            f" downtime {fmt_time(rep.downtime_ns)}"
        )

    # -- observability commands (OBSERVABILITY.md) ----------------------------

    def cmd_stats(self) -> str:
        """sls> stats — dump the local kernel's metric registry."""
        from repro.obs import render_registry

        return render_registry(self.kernel.obs.registry)

    def cmd_trace(self, action: str = "show", *rest) -> str:
        """sls> trace on|off|show [limit] — control/inspect tracing."""
        from repro.obs import render_span_tree

        obs = self.kernel.obs
        if action == "on":
            obs.enable()
            return "tracing on"
        if action == "off":
            obs.disable()
            return "tracing off"
        if action == "show":
            limit = int(rest[0]) if rest else 8
            roots = obs.tracer.roots()
            if not roots:
                state = "on" if obs.enabled else "off"
                return f"no spans recorded (tracing is {state})"
            return render_span_tree(roots, limit=limit)
        raise SlsError(f"unknown trace action {action!r} (on/off/show)")

    def cmd_recv(self, group_name: str) -> str:
        """sls recv — receive an application from a remote."""
        ready = self.receiver.pump(wait=True)
        if group_name not in ready:
            raise SlsError(f"no image for {group_name!r} arrived")
        procs, metrics = self.receiver.restore(group_name, new_instance=True)
        return (
            f"received and restored {group_name} on aurora1 ->"
            f" pids {[p.pid for p in procs]} in {fmt_time(metrics.total_ns)}"
        )

    # -- dispatch ---------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns its output."""
        parts = line.strip().split()
        if not parts or parts[0].startswith("#"):
            return ""
        verb, *args = parts
        handlers = {
            "launch": self.launch,
            "persist": self.cmd_persist,
            "attach": self.cmd_attach,
            "detach": self.cmd_detach,
            "checkpoint": self.cmd_checkpoint,
            "restore": self.cmd_restore,
            "ps": self.cmd_ps,
            "send": self.cmd_send,
            "recv": self.cmd_recv,
            "rollback": self.cmd_rollback,
            "migrate": self.cmd_migrate,
            "stats": self.cmd_stats,
            "trace": self.cmd_trace,
        }
        handler = handlers.get(verb)
        if handler is None:
            raise SlsError(
                f"unknown command {verb!r}; try: {', '.join(sorted(handlers))}"
            )
        return handler(*args)
