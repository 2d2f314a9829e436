"""The Aurora object store: COW records, snapshots, dedup, GC, log."""

from repro.objstore.alloc import Extent, ExtentAllocator
from repro.objstore.block import Volume
from repro.objstore.dedup import DedupEntry, DedupIndex, DedupStats
from repro.objstore.fsck import (
    Fsck,
    FsckFinding,
    FsckReport,
    check_store,
    repair_store,
)
from repro.objstore.log import LogAppend, PersistentLog
from repro.objstore.record import (
    KIND_FILEDATA,
    KIND_LOG,
    KIND_MANIFEST,
    KIND_META,
    KIND_PAGE,
    KIND_SUPER,
    decode,
    encode,
    pack_record,
    unpack_record,
)
from repro.objstore.scrub import Scrubber, ScrubStats
from repro.objstore.snapshot import PageTable, Snapshot, SnapshotDirectory
from repro.objstore.store import (
    MAX_BATCH_EXTENT,
    MetaRef,
    ObjectStore,
    PageRef,
    RecoveryReport,
    StoreStats,
    WriteBatch,
)

__all__ = [
    "Extent",
    "ExtentAllocator",
    "Volume",
    "DedupEntry",
    "DedupIndex",
    "DedupStats",
    "Fsck",
    "FsckFinding",
    "FsckReport",
    "check_store",
    "repair_store",
    "Scrubber",
    "ScrubStats",
    "LogAppend",
    "PersistentLog",
    "KIND_FILEDATA",
    "KIND_LOG",
    "KIND_MANIFEST",
    "KIND_META",
    "KIND_PAGE",
    "KIND_SUPER",
    "decode",
    "encode",
    "pack_record",
    "unpack_record",
    "PageTable",
    "Snapshot",
    "SnapshotDirectory",
    "MAX_BATCH_EXTENT",
    "MetaRef",
    "ObjectStore",
    "PageRef",
    "RecoveryReport",
    "StoreStats",
    "WriteBatch",
]
