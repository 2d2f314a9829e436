"""The SLS orchestrator (paper §3).

"The SLS orchestrator maps kernel objects to the on-disk store and
manages the checkpoint and resume operations. ... The orchestrator
provides serialization barriers across the entire OS to provide
consistent application-wide checkpoints.  All processes are
momentarily paused and remaining unflushed state is copied into memory
buffers or tracked using copy-on-write.  These updates are flushed
asynchronously to disk."

One :class:`SLS` instance runs per kernel; it owns the persistence
groups, drives the serialization barrier (Table 3's stop time), and
coordinates backends, external consistency, and restore/rollback.
"""

from __future__ import annotations

from typing import Optional

from repro.core.backends import Backend
from repro.core.checkpoint import CheckpointImage, MemoryCopy, StoreCopy
from repro.core.extcons import ExternalConsistency
from repro.core.group import DEFAULT_PERIOD_NS, PersistenceGroup
from repro.core.metrics import CheckpointMetrics, RestoreMetrics
from repro.core.restore import restore_from_memory, restore_from_store
from repro.core.scheduler import CheckpointScheduler, CheckpointTicket
from repro.errors import (
    BackendError,
    CheckpointError,
    HardwareError,
    NotPersisted,
    ObjectStoreError,
    RestoreError,
    SlsError,
)
from repro.mem.vmobject import VMObject
from repro.obs import names as obs_names
from repro.objstore.pagecache import FaultOrderLog
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Container, Kernel
from repro.posix.process import Process
from repro.serial.procsnap import group_vm_objects, serialize_group


#: lazy-restore prefetch policies :meth:`SLS.restore` accepts
PREFETCH_POLICIES = ("off", "recorded", "hot")


class SLS:
    """The single-level-store service of one kernel."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        kernel.sls = self
        self.groups: dict[int, PersistenceGroup] = {}
        #: per-tenant QoS multiplexer; every asynchronous checkpoint
        #: (periodic ticks, checkpoint_async) routes through it.  The
        #: default config is unthrottled, so single-tenant callers see
        #: the historical synchronous-at-submit behavior.
        self.scheduler = CheckpointScheduler(self)
        #: auto-checkpoint event handles per group
        self._periodic: dict[int, object] = {}

    # -- sls persist -------------------------------------------------------------

    def persist(
        self,
        target,
        name: Optional[str] = None,
        *,
        period_ns: int = DEFAULT_PERIOD_NS,
        auto_checkpoint: bool = False,
    ) -> PersistenceGroup:
        """``sls persist``: put a process tree or container in a group."""
        if isinstance(target, Process):
            group = PersistenceGroup(
                self.kernel, name or target.name, root=target, period_ns=period_ns
            )
        elif isinstance(target, Container):
            group = PersistenceGroup(
                self.kernel, name or target.name, container=target, period_ns=period_ns
            )
        else:
            raise NotPersisted(f"cannot persist a {type(target).__name__}")
        group.extcons = ExternalConsistency(group)
        self.groups[group.gid] = group
        if auto_checkpoint:
            self.start_periodic(group)
        return group

    def persist_host(
        self,
        *,
        period_ns: int = DEFAULT_PERIOD_NS,
        auto_checkpoint: bool = False,
    ) -> PersistenceGroup:
        """Persist the whole host ("the host and each container have
        their own persistence group"): everything under init that is
        not already inside a container's group."""
        existing = self.find_group("host")
        if existing is not None:
            return existing
        group = self.persist(
            self.kernel.init,
            name="host",
            period_ns=period_ns,
            auto_checkpoint=auto_checkpoint,
        )
        group.exclude_containerized = True
        return group

    def unpersist(self, group: PersistenceGroup) -> None:
        self.stop_periodic(group)
        self.groups.pop(group.gid, None)

    def group_of(self, proc: Process) -> Optional[PersistenceGroup]:
        for group in self.groups.values():
            if proc.pid in group.member_pids():
                return group
        return None

    def find_group(self, name: str) -> Optional[PersistenceGroup]:
        for group in self.groups.values():
            if group.name == name:
                return group
        return None

    # -- periodic checkpointing ("persisted 100x per second") ----------------------

    def start_periodic(self, group: PersistenceGroup) -> None:
        if group.gid in self._periodic:
            return

        def tick():
            if group.gid not in self.groups:
                return
            if group.processes() and group.backends:
                # Through the scheduler, not a direct checkpoint: at
                # fleet scale many groups tick in the same window and
                # the per-tenant QoS budgets decide whose serialization
                # barrier runs when.
                self.scheduler.submit(group)
            self._periodic[group.gid] = self.kernel.events.schedule_after(
                group.period_ns, tick
            )

        self._periodic[group.gid] = self.kernel.events.schedule_after(
            group.period_ns, tick
        )

    def stop_periodic(self, group: PersistenceGroup) -> None:
        handle = self._periodic.pop(group.gid, None)
        if handle is not None:
            handle.cancel()

    # -- checkpoint --------------------------------------------------------------------

    @staticmethod
    def _checkpointable_objects(procs: list[Process]) -> list[VMObject]:
        """Group VM objects minus those excluded via ``sls_mctl``."""
        objects = group_vm_objects(procs)
        included: set[int] = set()
        excluded: set[int] = set()
        for proc in procs:
            for entry in proc.aspace.entries:
                chain: Optional[VMObject] = entry.obj
                while chain is not None:
                    (excluded if entry.sls_exclude else included).add(chain.oid)
                    chain = chain.shadow
        drop = excluded - included
        return [o for o in objects if o.oid not in drop]

    def checkpoint(
        self,
        group: PersistenceGroup,
        *,
        full: Optional[bool] = None,
        name: Optional[str] = None,
        sync: bool = False,
    ) -> CheckpointImage:
        """Take one checkpoint of ``group`` (the serialization barrier).

        ``full=None`` picks automatically: the first checkpoint is
        full, later ones incremental.  ``name`` names the image
        (autogenerated when ``None``).  Data is flushed to the attached
        backends asynchronously; use :meth:`barrier` to wait for
        durability, or pass ``sync=True`` to fold the barrier in.
        """
        if full is not None and not isinstance(full, bool):
            raise SlsError(f"checkpoint: full must be bool/None, got {full!r}")
        if name is not None and not isinstance(name, str):
            raise SlsError(f"checkpoint: name must be str/None, got {name!r}")
        if not isinstance(sync, bool):
            raise SlsError(f"checkpoint: sync must be bool, got {sync!r}")
        procs = group.processes()
        if not procs:
            raise CheckpointError(f"group {group.name!r} has no live processes")
        if not group.backends:
            raise BackendError(f"group {group.name!r} has no attached backends")
        mem = self.kernel.mem
        cpu = mem.cpu
        clock = self.kernel.clock
        obs = self.kernel.obs
        tracer = obs.tracer

        incremental = group.last_freeze_epoch is not None if full is None else not full
        if group.last_freeze_epoch is None:
            incremental = False
        if group.force_full and full is None:
            # Retention asked for a consolidating full checkpoint.
            incremental = False
            group.force_full = False

        # Pipelining: COW capture of checkpoint N overlaps the async
        # flush of N-1 whenever the previous image is still in flight
        # at barrier entry (the flush is asynchronous, so nothing here
        # waits — this records how often and for how long it happens).
        prev = group.latest_image
        entered_at = clock.now
        pipelined = prev is not None and not prev.durable
        if pipelined:
            obs.registry.counter(
                obs_names.C_CKPT_PIPELINED, group=group.name
            ).inc()

            def _observe_overlap(img, _entered=entered_at, _group=group.name):
                # How long the previous flush ran concurrently with (and
                # past) this checkpoint: its durability time minus our
                # barrier entry.
                durable_at = img.metrics.durable_at_ns or _entered
                obs.registry.histogram(
                    obs_names.H_FLUSH_OVERLAP, group=_group
                ).observe(max(0, durable_at - _entered))

            prev.on_durable(_observe_overlap)

        # The span tree IS the measurement: CheckpointMetrics (the
        # Table 3 record) is derived from it below, so the trace and
        # the printed breakdown cannot disagree.
        with tracer.span(
            obs_names.SPAN_CHECKPOINT,
            group=group.name,
            incremental=incremental,
            backends=len(group.backends),
            pipelined=pipelined,
        ) as ckpt_span:
            tracer.event(
                obs_names.EV_BARRIER_ENTER, group=group.name, procs=len(procs)
            )
            with tracer.span(obs_names.SPAN_CKPT_STOP) as stop_span:
                # --- serialization barrier: stop every process -----------
                for proc in procs:
                    proc.stop_all_threads()
                    mem.charge(cpu.proc_stop_ns)

                # --- metadata copy ---------------------------------------
                with tracer.span(obs_names.SPAN_CKPT_STOP_METADATA) as meta_span:
                    mem.charge(cpu.ckpt_fixed_ns)
                    meta, ctx = serialize_group(procs, self.kernel)
                    mem.charge(ctx.objects_serialized * cpu.object_serialize_ns)
                    objects = self._checkpointable_objects(procs)
                    if not incremental:
                        resident = sum(o.resident_count() for o in objects)
                        mem.charge(resident * cpu.page_meta_full_ns)
                    meta_span.set(objects=ctx.objects_serialized)

                # External consistency: cut the held streams at the barrier.
                cuts = group.extcons.mark_barrier() if group.extcons else {}

                # --- lazy data copy: arm COW over the capture set --------
                with tracer.span(obs_names.SPAN_CKPT_STOP_COW_ARM) as arm_span:
                    since = None if not incremental else group.last_freeze_epoch + 1
                    freeze_set = self.kernel.cow.freeze(
                        objects, incremental_since=since
                    )
                    arm_span.set(pages=len(freeze_set), epoch=freeze_set.epoch)
                group.last_freeze_epoch = freeze_set.epoch

                # Hot-set hint for lazy restores: the pages captured by
                # this freeze are the most recently written — the clock
                # algorithm's best guess at the working set ("eagerly
                # paging in the hottest pages to avoid excessive page
                # faults").  The prefetch budget is bounded so a lazy
                # restore of a full image stays lazy.
                budget = min(4096, max(64, len(freeze_set) // 10))
                hot: dict[int, list[int]] = {}
                for run in freeze_set.runs:
                    if budget <= 0:
                        break
                    hot.setdefault(run.obj.oid, []).extend(run.pindexes[:budget])
                    budget -= len(run.pindexes)
                meta["hot"] = hot

                # --- resume ----------------------------------------------
                for proc in procs:
                    proc.resume_all_threads()
            tracer.event(
                obs_names.EV_BARRIER_EXIT,
                group=group.name,
                stop_ns=stop_span.duration_ns,
            )

            metrics = CheckpointMetrics.from_span(ckpt_span)
            resumed_at = clock.now

            # --- asynchronous flush to every backend ----------------------
            parent = group.latest_image
            image = CheckpointImage(
                name=name or f"{group.name}@{freeze_set.epoch}",
                group_name=group.name,
                epoch=freeze_set.epoch,
                incremental=incremental,
                meta=meta,
                image_id=next(self.kernel.image_ids),
                parent=parent,
                metrics=metrics,
                captured_by=self.kernel,
            )

            def _observe_backend_durable(backend_name: str, when_ns: int,
                                         _group=group.name, _resumed=resumed_at):
                # Per-backend flush lag: resume-to-durable, the async
                # tail behind Table 3's stop time.
                lag = max(0, when_ns - _resumed)
                obs.registry.histogram(
                    obs_names.H_FLUSH_LAG, backend=backend_name
                ).observe(lag)
                tracer.event(
                    obs_names.EV_BACKEND_DURABLE,
                    backend=backend_name, group=_group, lag_ns=lag,
                )

            image.backend_durable_hook = _observe_backend_durable

            failures: list[tuple[str, Exception]] = []
            with tracer.span(
                obs_names.SPAN_CKPT_FLUSH_SUBMIT, backends=len(group.backends)
            ) as flush_span:
                for backend in group.backends:
                    try:
                        backend.persist(image, freeze_set, parent)
                    except (HardwareError, ObjectStoreError) as exc:
                        # A failed backend must not lose the checkpoint on
                        # the healthy ones; durability expectation shrinks.
                        failures.append((backend.name, exc))
                        image.metrics.backends_expected -= 1
                doorbells = submit_stall_ns = 0
                for copy in image.copies.values():
                    if isinstance(copy, StoreCopy):
                        doorbells += copy.flush.doorbells
                        submit_stall_ns += copy.flush.submit_stall_ns
                flush_span.set(
                    bytes=image.metrics.bytes_flushed,
                    doorbells=doorbells,
                    submit_stall_ns=submit_stall_ns,
                )
            if failures and image.metrics.backends_expected == 0:
                freeze_set.release(self.kernel.phys)
                raise CheckpointError(
                    f"every backend failed: "
                    + "; ".join(f"{name}: {exc}" for name, exc in failures)
                )
            image.failed_backends = [name for name, _ in failures]
            # A backend may already have been the last one standing.
            if image.durable_on and not image.durable:
                image.mark_durable(next(iter(image.durable_on)),
                                   self.kernel.clock.now)

            # The freeze pass held one reference per captured frame.  If
            # the image has a memory copy, that copy now owns those holds;
            # otherwise the content lives in store/remote copies and the
            # holds are dropped.
            if not any(isinstance(copy, MemoryCopy)
                       for copy in image.copies.values()):
                freeze_set.release(self.kernel.phys)

            if group.extcons is not None:
                extcons = group.extcons
                image.on_durable(lambda _img: extcons.on_checkpoint_durable(cuts))
            group.add_image(image)
            group.stats.record(metrics)

        reg = obs.registry
        reg.counter(obs_names.C_CHECKPOINTS, group=group.name).inc()
        reg.counter(
            obs_names.C_PAGES_CAPTURED, group=group.name
        ).inc(metrics.pages_captured)
        reg.histogram(
            obs_names.H_STOP_TIME, group=group.name
        ).observe(metrics.stop_time_ns)
        if sync:
            self.barrier(group)
        return image

    def checkpoint_async(
        self,
        group: PersistenceGroup,
        *,
        name: Optional[str] = None,
    ) -> CheckpointTicket:
        """Submit a checkpoint request to the QoS scheduler.

        Never blocks: returns a :class:`~repro.core.scheduler.CheckpointTicket`
        whose status is ``rejected`` when the group's tenant is at its
        admission cap, otherwise ``pending`` (dispatch may already have
        run it inline when budgets allow).  Use :meth:`barrier` to
        drain the group's outstanding requests to durability.
        """
        return self.scheduler.submit(group, name=name)

    # -- durability ---------------------------------------------------------------------

    def barrier(self, group: PersistenceGroup) -> int:
        """``sls_barrier``: wait until the latest image is durable.

        Advances virtual time (running background flush events) until
        every backend has confirmed — including checkpoints the QoS
        scheduler has admitted for this group but not yet dispatched
        or flushed.  Returns the durability time.
        """
        guard = 0
        while self.scheduler.outstanding(group) > 0:
            deadline = self.kernel.events.next_deadline()
            if deadline is None:
                break
            self.kernel.events.run_until(deadline)
            guard += 1
            if guard > 1_000_000:
                raise CheckpointError("barrier did not converge")
        image = group.latest_image
        if image is None:
            return self.kernel.clock.now
        with self.kernel.obs.tracer.span(
            obs_names.SPAN_BARRIER, group=group.name, image=image.name
        ):
            while not image.durable:
                deadline = self.kernel.events.next_deadline()
                if deadline is None:
                    # No pending flush event can complete it (e.g. memory
                    # backend already durable) — nothing to wait for.
                    break
                self.kernel.events.run_until(deadline)
                guard += 1
                if guard > 1_000_000:
                    raise CheckpointError("barrier did not converge")
        return self.kernel.clock.now

    # -- restore ---------------------------------------------------------------------------

    def restore(
        self,
        image: CheckpointImage,
        *,
        backend_name: Optional[str] = None,
        store: Optional[ObjectStore] = None,
        lazy: bool = False,
        new_instance: bool = False,
        name_suffix: str = "",
        prefetch: Optional[str] = None,
        record_faults: bool = False,
        fault_log: Optional[FaultOrderLog] = None,
    ) -> tuple[list[Process], RestoreMetrics]:
        """Restore ``image``; returns (processes, metrics).

        ``backend_name`` picks which of the image's copies to read
        (``image.copies``); by default the in-memory copy is preferred,
        then the first store copy.  Each copy knows its store; a
        ``store`` passed here is only checked against it.  ``lazy``
        maps pages on demand instead of loading them eagerly.
        ``new_instance`` allocates fresh PIDs (scale-out clone) instead
        of reclaiming the originals (crash resume); ``name_suffix`` is
        appended to the clone's process names.

        ``prefetch`` names the lazy-restore prefetch policy: ``"off"``
        (pure demand paging), ``"recorded"`` (replay ``fault_log`` as a
        cache warm-up stream) or ``"hot"`` (eagerly load the pages the
        checkpoint marked hot); ``None`` means ``"hot"``.
        ``record_faults`` appends this restore's page-fault sequence to
        ``fault_log``.
        """
        if backend_name is not None and not isinstance(backend_name, str):
            raise SlsError(
                f"restore: backend_name must be str/None, got {backend_name!r}"
            )
        for flag, value in (("lazy", lazy), ("new_instance", new_instance),
                            ("record_faults", record_faults)):
            if not isinstance(value, bool):
                raise SlsError(f"restore: {flag} must be bool, got {value!r}")
        if not isinstance(name_suffix, str):
            raise SlsError(f"restore: name_suffix must be str, got {name_suffix!r}")
        if name_suffix and not new_instance:
            raise SlsError("restore: name_suffix only applies with new_instance=True")
        if prefetch is not None:
            if prefetch not in PREFETCH_POLICIES:
                raise SlsError(
                    f"restore: prefetch must be one of {PREFETCH_POLICIES}, "
                    f"got {prefetch!r}"
                )
            if not lazy:
                raise SlsError("restore: prefetch only applies with lazy=True")
        if fault_log is not None and not isinstance(fault_log, FaultOrderLog):
            raise SlsError(
                f"restore: fault_log must be a FaultOrderLog, got {fault_log!r}"
            )
        if record_faults and not lazy:
            raise SlsError("restore: record_faults only applies with lazy=True")
        if record_faults and fault_log is None:
            raise SlsError("restore: record_faults requires a fault_log")
        if prefetch == "recorded" and fault_log is None:
            raise SlsError('restore: prefetch="recorded" requires a fault_log')

        if backend_name is None:
            backend_name = image.default_backend()
            if backend_name is None:
                raise RestoreError("image has no restorable backend")
        copy = image.copies.get(backend_name)
        if copy is None:
            raise RestoreError(f"image not present on backend {backend_name!r}")
        if store is not None and not (isinstance(copy, StoreCopy)
                                      and copy.store is store):
            raise SlsError(
                f"restore: store is not the one holding the image's copy "
                f"on {backend_name!r}"
            )
        if isinstance(copy, MemoryCopy):
            return restore_from_memory(
                image, copy, self.kernel,
                lazy=lazy, new_instance=new_instance, name_suffix=name_suffix,
            )
        return restore_from_store(
            image, copy, backend_name, self.kernel,
            lazy=lazy, new_instance=new_instance, name_suffix=name_suffix,
            prefetch=prefetch or "hot", record_faults=record_faults,
            fault_log=fault_log,
        )

    def ps(self) -> list[dict]:
        """``sls ps``: one row per persisted application."""
        rows = []
        for group in self.groups.values():
            rows.append(
                {
                    "group": group.name,
                    "gid": group.gid,
                    "pids": sorted(group.member_pids()),
                    "backends": [b.name for b in group.backends],
                    "checkpoints": group.stats.checkpoints_taken,
                    "images": [img.name for img in group.images],
                    "mean_stop_us": group.stats.mean_stop_ns() / 1000.0,
                }
            )
        return rows
