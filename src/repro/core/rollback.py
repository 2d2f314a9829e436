"""Rollback: restore a group *in place* to a prior checkpoint.

The primitive behind ``sls_rollback`` and the speculation use case
(paper §4): the current processes are destroyed, the checkpoint is
restored with the original PIDs, externally-held output that the world
never saw is discarded, and the restored processes are notified so a
speculating application can take its conservative path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.checkpoint import CheckpointImage
from repro.core.metrics import RestoreMetrics
from repro.errors import RollbackError
from repro.posix.process import Process
from repro.posix.signals import SIGUSR2

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.group import PersistenceGroup
    from repro.core.orchestrator import SLS

#: signal delivered to every restored process after a rollback
ROLLBACK_SIGNAL = SIGUSR2


def rollback(
    sls: "SLS",
    group: "PersistenceGroup",
    image: Optional[CheckpointImage] = None,
    *,
    notify: bool = True,
) -> tuple[list[Process], RestoreMetrics]:
    """Roll ``group`` back to ``image`` (default: latest checkpoint)."""
    image = image or group.latest_image
    if image is None:
        raise RollbackError(f"group {group.name!r} has no checkpoint to roll back to")

    # Output held for external consistency reflects state being
    # destroyed; the peers must never see it.
    if group.extcons is not None:
        group.extcons.on_rollback()

    # Tear down the current incarnation.
    kernel = sls.kernel
    current = group.processes()
    for proc in sorted(current, key=lambda p: p.pid, reverse=True):
        kernel.exit(proc, status=128 + ROLLBACK_SIGNAL)
        kernel.reap(proc)

    procs, metrics = sls.restore(image)

    # Re-root the group on the restored tree.
    if group.root is not None:
        group.root = procs[0]
    if group.container is not None:
        for proc in procs:
            group.container.member_pids.add(proc.pid)

    if notify:
        # "Aurora notifies the client of the rollback, allowing it to
        # try a more conservative code path."
        for proc in procs:
            proc.signals.send(ROLLBACK_SIGNAL)

    group.stats.rollbacks += 1
    if group.extcons is not None:
        group.extcons.refresh()
    return procs, metrics
