"""libsls — the developer API of Table 2.

=================  =========================================================
``sls_checkpoint``  Create an image
``sls_restore``     Restore a checkpoint
``sls_rollback``    Roll back state to last checkpoint
``sls_ntflush``     Non-temporal flush (outside checkpoint)
``sls_barrier``     Wait for a checkpoint to be flushed
``sls_mctl``        Include/exclude memory regions
``sls_fdctl``       Enable/disable external consistency
=================  =========================================================

An :class:`AuroraApi` instance binds one process to the SLS, the way
``libsls`` binds an application to the kernel interface.  The database
ports in :mod:`repro.apps` are written entirely against this API.
"""

from __future__ import annotations

from typing import Optional

from repro.core.checkpoint import CheckpointImage
from repro.core.metrics import RestoreMetrics
from repro.core.orchestrator import SLS
from repro.core.rollback import rollback as _rollback
from repro.errors import NotPersisted, SlsError
from repro.objstore.log import LogAppend, PersistentLog
from repro.objstore.pagecache import FaultOrderLog
from repro.posix.process import Process
from repro.posix.socket import SocketFile


class AuroraApi:
    """The ``libsls`` surface for one process."""

    def __init__(self, sls: SLS, proc: Process):
        self.sls = sls
        self.proc = proc
        self._log: Optional[PersistentLog] = None

    def _group(self):
        group = self.sls.group_of(self.proc)
        if group is None:
            raise NotPersisted(
                f"process {self.proc.pid} is not in a persistence group"
            )
        return group

    # -- checkpoint/restore/rollback -----------------------------------------

    def sls_checkpoint(
        self,
        *,
        name: Optional[str] = None,
        full: Optional[bool] = None,
        sync: bool = False,
    ) -> CheckpointImage:
        """Create an image of the caller's persistence group (the
        keywords are :meth:`~repro.core.orchestrator.SLS.checkpoint`'s)."""
        return self.sls.checkpoint(
            self._group(), full=full, name=name, sync=sync
        )

    def sls_restore(
        self,
        name: Optional[str] = None,
        *,
        backend_name: Optional[str] = None,
        lazy: bool = False,
        new_instance: bool = False,
        name_suffix: str = "",
        prefetch: Optional[str] = None,
        record_faults: bool = False,
        fault_log: Optional[FaultOrderLog] = None,
    ) -> tuple[list[Process], RestoreMetrics]:
        """Restore the caller's group to a named (or latest) image.

        Every knob is an explicit keyword-only parameter, checked by
        :meth:`~repro.core.orchestrator.SLS.restore`, under the same
        names, so a misspelled option fails loudly instead of being
        ignored.
        """
        group = self._group()
        image = group.image_by_name(name) if name else group.latest_image
        if image is None:
            raise SlsError(f"no image {name!r} for group {group.name!r}")
        return self.sls.restore(
            image, backend_name=backend_name, lazy=lazy, new_instance=new_instance,
            name_suffix=name_suffix, prefetch=prefetch,
            record_faults=record_faults, fault_log=fault_log,
        )

    def sls_rollback(self) -> tuple[list[Process], RestoreMetrics]:
        """Roll the group back to its last checkpoint (in place)."""
        return _rollback(self.sls, self._group())

    # -- data-plane primitives ---------------------------------------------------

    def sls_ntflush(self, data: bytes, *, sync: bool = True) -> LogAppend:
        """Low-latency append to the group's persistent log.

        Bypasses the checkpoint cycle entirely — the calling database
        uses this where it used an fsync'd WAL record.  The log is
        truncated by the next checkpoint (which supersedes it).
        """
        if self._log is None:
            group = self._group()
            stores = group.store_backends()
            if not stores:
                raise SlsError("sls_ntflush requires a store backend")
            store = stores[0].store
            self._log = store.find_log(self.proc.pid) or PersistentLog(
                store, owner_oid=self.proc.pid
            )
        return self._log.append(data, sync=sync)

    def _locate_log(self) -> Optional[PersistentLog]:
        """The group's persistent log for this process, if one exists.

        ``sls_log_replay`` is the restore-time repair path: the
        ``AuroraApi`` handle is fresh after a restore, so ``_log`` being
        unset must not hide a log another incarnation already wrote.
        The store keeps a registry of live logs by owner oid.
        """
        if self._log is None:
            group = self._group()
            for backend in group.store_backends():
                found = backend.store.find_log(self.proc.pid)
                if found is not None:
                    self._log = found
                    break
        return self._log

    def sls_log_replay(self, since_seq: int = 0) -> list[tuple[int, bytes]]:
        """Replay ntflush records (restore-time repair path)."""
        log = self._locate_log()
        if log is None:
            return []
        return log.replay(since_seq)

    def sls_log_truncate(self, seq: int) -> int:
        """Drop log records covered by a checkpoint."""
        log = self._locate_log()
        if log is None:
            return 0
        return log.truncate_before(seq)

    def sls_barrier(self) -> int:
        """Block until the group's latest checkpoint is durable."""
        return self.sls.barrier(self._group())

    # -- data-only persistence (§4 Databases / "richer API") -----------------------

    def _store(self):
        group = self._group()
        stores = group.store_backends()
        if not stores:
            raise SlsError("data snapshots require a store backend")
        return stores[0].store

    def sls_datasnap(self, addr: int, length: int, name: str, *,
                     sync: bool = False):
        """Checkpoint a memory region *without* execution state.

        The explicit persistence primitive: the database hands Aurora a
        region and a name; no fsync/msync semantics involved.
        """
        from repro.core.datasnap import datasnap

        return datasnap(self._store(), self.proc.aspace, addr, length,
                        name, sync=sync)

    def sls_datarestore(self, name: str, addr: Optional[int] = None) -> int:
        """Load a named data snapshot back into this address space."""
        from repro.core.datasnap import datarestore

        return datarestore(self._store(), self.proc.aspace, name, addr=addr)

    def sls_datasnaps(self) -> list[str]:
        from repro.core.datasnap import list_datasnaps

        return list_datasnaps(self._store())

    # -- policy controls ---------------------------------------------------------------

    def sls_mctl(
        self,
        addr: int,
        length: int,
        *,
        include: bool = True,
        hint: str = "",
    ) -> int:
        """Include/exclude memory and set lazy-restore hints.

        Returns the number of map entries affected.  Excluded regions
        (caches, scratch buffers) are skipped by checkpoints; ``hint``
        of ``"eager"``/``"lazy"`` steers restore paging policy.
        """
        if hint not in ("", "eager", "lazy"):
            raise SlsError(f"invalid sls_mctl hint {hint!r}")
        affected = self.proc.aspace.entries_covering(
            addr, addr + length, split=True
        )
        if not affected:
            raise SlsError(f"sls_mctl range {addr:#x} not mapped")
        for entry in affected:
            entry.sls_exclude = not include
            if hint:
                entry.restore_hint = hint
        return len(affected)

    def sls_fdctl(self, fd: int, external_consistency: bool) -> None:
        """Toggle external consistency for one descriptor."""
        file = self.proc.fdtable.lookup(fd)
        if not isinstance(file, SocketFile):
            raise SlsError("sls_fdctl applies to sockets")
        group = self._group()
        assert group.extcons is not None
        group.extcons.set_enabled(file.socket, external_consistency)
