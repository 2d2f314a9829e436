"""Canonical names for every failpoint shipped in the tree.

One flat catalogue so instrumented modules and the documentation
(``FAULTS.md``) can never drift apart: the docs test asserts that
every failpoint shipped here is documented, and modules import these
constants instead of spelling strings inline — exactly the contract
``repro.obs.names`` holds for spans and metrics.

Naming convention: ``<subsystem>.<operation>``, matching the span
taxonomy where a failpoint sits inside an instrumented operation
(``objstore.commit_snapshot`` fires inside ``sls.checkpoint``'s flush
phase).  A failpoint name identifies a *site*; which fault it injects
(torn write, dropped flush, I/O error, timeout) is chosen
when the point is armed.
"""

from __future__ import annotations

# --- hardware (repro.hw.device) ----------------------------------------------

FP_DEVICE_READ = "device.read"
FP_DEVICE_WRITE = "device.write"
FP_DEVICE_BATCH = "device.write_batch"
FP_DEVICE_FLUSH = "device.flush_barrier"

# --- object store (repro.objstore) -------------------------------------------

FP_STORE_WRITE_RECORD = "objstore.write_record"
#: fires before a zlib-compressed page record is written — a torn
#: write here leaves a payload that no longer inflates
FP_STORE_WRITE_COMPRESSED = "objstore.write_compressed"
#: fires before a delta-encoded page record is written — a torn write
#: here leaves a dirty-extent list that no longer parses
FP_STORE_WRITE_DELTA = "objstore.write_delta"
FP_STORE_BATCH_FLUSH = "objstore.batch.flush"
FP_STORE_SHARD_FLUSH = "objstore.batch.shard_flush"
FP_STORE_COMMIT = "objstore.commit_snapshot"
FP_STORE_DELETE = "objstore.delete_snapshot"
FP_STORE_WRITE_DIRECTORY = "objstore.write_directory"
FP_STORE_ALLOC = "objstore.alloc"
FP_LOG_APPEND = "objstore.log.append"
FP_FSCK_REPAIR = "objstore.fsck.repair"
FP_SCRUB_STEP = "objstore.scrub.step"

# --- persistence backends (repro.core.backends) -------------------------------

FP_BACKEND_PERSIST = "backend.persist"
FP_REMOTE_SEND = "backend.remote.send"

# --- file system (repro.slsfs) ------------------------------------------------

FP_FS_SYNC = "slsfs.sync"


def catalogue() -> list[str]:
    """Every shipped failpoint name (used by the docs test)."""
    return sorted(
        value
        for key, value in globals().items()
        if key.startswith("FP_")
    )
