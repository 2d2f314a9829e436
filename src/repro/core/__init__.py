"""The Aurora SLS: orchestrator, backends, checkpoints, restore,
rollback, external consistency, remote replication, and the libsls API."""

from repro.core.api import AuroraApi
from repro.core.backends import (
    Backend,
    DiskBackend,
    MemoryBackend,
    NvdimmBackend,
    RemoteBackend,
    StoreBackend,
    make_disk_backend,
)
from repro.core.checkpoint import CheckpointImage
from repro.core.datasnap import (
    DataSnapshot,
    datarestore,
    datasnap,
    drop_datasnap,
    list_datasnaps,
)
from repro.core.extcons import ExternalConsistency
from repro.core.group import DEFAULT_PERIOD_NS, PersistenceGroup
from repro.core.metrics import CheckpointMetrics, GroupStats, RestoreMetrics
from repro.core.orchestrator import SLS
from repro.core.remote import (
    MigrationReceiver,
    MigrationReport,
    export_image,
    import_image,
    live_migrate,
    sls_send,
)
from repro.core.restore import load_image_from_store
from repro.core.rollback import ROLLBACK_SIGNAL, rollback

__all__ = [
    "AuroraApi",
    "Backend",
    "DiskBackend",
    "MemoryBackend",
    "NvdimmBackend",
    "RemoteBackend",
    "StoreBackend",
    "make_disk_backend",
    "CheckpointImage",
    "DataSnapshot",
    "datarestore",
    "datasnap",
    "drop_datasnap",
    "list_datasnaps",
    "ExternalConsistency",
    "DEFAULT_PERIOD_NS",
    "PersistenceGroup",
    "CheckpointMetrics",
    "GroupStats",
    "RestoreMetrics",
    "SLS",
    "MigrationReceiver",
    "MigrationReport",
    "export_image",
    "import_image",
    "live_migrate",
    "sls_send",
    "load_image_from_store",
    "ROLLBACK_SIGNAL",
    "rollback",
]
