"""Persistence groups.

A group is the unit of persistence: an individual process, a process
tree, or a container.  The host and each container get their own group
(paper §3.1).  Groups own their attached backends, their checkpoint
history ("Aurora uses free space on-disk to provide a short execution
history as incremental checkpoints"), and their external-consistency
holds.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from repro.core.backends import Backend, StoreBackend
from repro.core.checkpoint import CheckpointImage
from repro.core.metrics import GroupStats
from repro.errors import BackendError, NotPersisted
from repro.posix.kernel import Container, Kernel
from repro.posix.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.extcons import ExternalConsistency

#: default checkpointing frequency — "By default the application is
#: persisted 100× per second."
DEFAULT_PERIOD_NS = 10_000_000


class PersistenceGroup:
    """One persisted application (process tree or container)."""

    _next_id = itertools.count(1)

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        root: Optional[Process] = None,
        container: Optional[Container] = None,
        period_ns: int = DEFAULT_PERIOD_NS,
    ):
        if (root is None) == (container is None):
            raise NotPersisted("a group persists either a process tree or a container")
        self.gid = next(PersistenceGroup._next_id)
        self.kernel = kernel
        self.name = name
        self.root = root
        self.container = container
        self.period_ns = period_ns
        self.backends: list[Backend] = []
        self.stats = GroupStats()
        self.images: list[CheckpointImage] = []
        #: epoch right after this group's latest freeze
        self.last_freeze_epoch: Optional[int] = None
        #: checkpoint history retained before pruning
        self.retention = 16
        #: set when pruning needs a consolidating full checkpoint
        self.force_full = False
        #: host group semantics: containerized processes belong to
        #: their container's group, not the host's
        self.exclude_containerized = False
        #: sockets with external consistency disabled (sls_fdctl)
        self.extcons_disabled: set[int] = set()
        #: installed by the SLS
        self.extcons: Optional["ExternalConsistency"] = None

    # -- membership -----------------------------------------------------------

    def processes(self) -> list[Process]:
        """Live processes currently in the group."""
        if self.container is not None:
            procs = self.kernel.container_processes(self.container)
        else:
            assert self.root is not None
            procs = list(self.root.walk_tree())
            if self.exclude_containerized:
                procs = [p for p in procs if not p.container_id]
        return [p for p in procs if p.is_alive()]

    def member_pids(self) -> set[int]:
        return {p.pid for p in self.processes()}

    # -- backends ----------------------------------------------------------------

    def attach(self, backend: Backend) -> Backend:
        """``sls attach``: register a backend with this group."""
        if any(b.name == backend.name for b in self.backends):
            raise BackendError(f"backend {backend.name!r} already attached")
        backend.bind(self.kernel)
        self.backends.append(backend)
        return backend

    def detach(self, backend_name: str) -> Backend:
        """``sls detach``."""
        for backend in self.backends:
            if backend.name == backend_name:
                self.backends.remove(backend)
                return backend
        raise BackendError(f"no backend {backend_name!r} attached")

    def backend_by_name(self, name: str) -> Backend:
        for backend in self.backends:
            if backend.name == name:
                return backend
        raise BackendError(f"no backend {name!r} attached")

    def store_backends(self) -> list[StoreBackend]:
        return [b for b in self.backends if isinstance(b, StoreBackend)]

    # -- images ------------------------------------------------------------------------

    @property
    def latest_image(self) -> Optional[CheckpointImage]:
        return self.images[-1] if self.images else None

    def image_by_name(self, name: str) -> Optional[CheckpointImage]:
        for image in reversed(self.images):
            if image.name == name:
                return image
        return None

    def add_image(self, image: CheckpointImage) -> None:
        self.images.append(image)
        self._prune()

    def _prune(self) -> None:
        """Drop history beyond the retention window (in-place GC).

        An incremental image's on-disk pagemap is a *delta*, and its
        manifest lists (and so pins) the delta records and manifests of
        its whole chain back to the covering full checkpoint — deleting
        an ancestor can no longer strand it.  Pruning still removes
        whole chain segments (history older than a later full image),
        newest first, so each delete frees the table it names and every
        manifest is read once; and when the window is over budget but
        contains no such cut point the next checkpoint is forced full
        (consolidation): that is what bounds the chain's length, hence
        manifest size and the overlay work of a post-reboot restore.
        The memory backend relies on whole segments: an incremental
        memory image holds no frame it inherited from its parent.
        """
        if len(self.images) <= self.retention:
            return
        cut = next(
            (i for i, img in enumerate(self.images)
             if i > 0 and not img.incremental),
            None,
        )
        if cut is None:
            self.force_full = True
            return
        doomed, self.images = self.images[:cut], self.images[cut:]
        self.images[0].parent = None
        for old in reversed(doomed):
            for backend in self.backends:
                delete = getattr(backend, "delete_image", None)
                if delete is not None:
                    delete(old)
        self._prune()

    def __repr__(self) -> str:
        target = self.container.name if self.container else f"pid {self.root.pid}"
        return (
            f"<PersistenceGroup {self.gid} {self.name!r} ({target})"
            f" backends={[b.name for b in self.backends]}"
            f" images={len(self.images)}>"
        )
