"""Zero-copy container snapshots and clones.

"Users can create zero copy snapshots and clones of a container
including process and file system state." (paper §3)

A :class:`ContainerSnapshot` pairs one SLS checkpoint image (process
state) with one SLSFS snapshot (file state), committed around the same
serialization barrier so they are mutually consistent.  Cloning
restores the process image as a *new instance* and clones the file
tree by sharing page refs — no data is copied on either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.checkpoint import CheckpointImage
from repro.obs import names as obs_names
from repro.objstore.snapshot import Snapshot
from repro.slsfs.fs import SlsFS

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.group import PersistenceGroup
    from repro.core.orchestrator import SLS


@dataclass
class ContainerSnapshot:
    """A consistent (process state, file state) pair."""

    name: str
    image: CheckpointImage
    fs_snapshot: Snapshot

    @property
    def epoch(self) -> int:
        return self.image.epoch


def snapshot_container(
    sls: "SLS",
    group: "PersistenceGroup",
    fs: SlsFS,
    name: Optional[str] = None,
) -> ContainerSnapshot:
    """Checkpoint the group and snapshot its filesystem together.

    The filesystem sync runs while the group is still quiescent from
    the checkpoint barrier (virtual time: immediately after), so the
    pair observes one consistent cut.
    """
    obs = sls.kernel.obs
    with obs.tracer.span(
        obs_names.SPAN_FS_SNAPSHOT, group=group.name
    ) as span:
        image = sls.checkpoint(group, name=name)
        fs_snapshot = fs.sync(name=f"slsfs@{image.name}")
        span.set(image=image.name, fs_snapshot=fs_snapshot.name)
    obs.registry.counter(obs_names.C_FS_SNAPSHOTS, group=group.name).inc()
    return ContainerSnapshot(
        name=name or image.name, image=image, fs_snapshot=fs_snapshot
    )


def clone_container(
    sls: "SLS",
    snapshot: ContainerSnapshot,
    name_suffix: str = "-clone",
    *,
    lazy: bool = True,
):
    """Instantiate a new container from a snapshot, zero-copy.

    Process memory is shared COW with the image (memory backend) or
    lazily paged from the store; file data is shared by reference.
    Returns (processes, restore metrics).
    """
    obs = sls.kernel.obs
    with obs.tracer.span(
        obs_names.SPAN_FS_CLONE, snapshot=snapshot.name, lazy=lazy
    ):
        result = sls.restore(
            snapshot.image,
            new_instance=True,
            name_suffix=name_suffix,
            lazy=lazy,
        )
    obs.registry.counter(obs_names.C_FS_CLONES).inc()
    return result
