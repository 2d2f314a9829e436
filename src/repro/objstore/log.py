"""The persistent append-only log behind ``sls_ntflush``.

Modified applications (the Redis/RocksDB ports of §4) replace their
write-ahead logs with Aurora's persistent log: ``sls_ntflush`` appends
a record and initiates a low-latency flush *outside* the checkpoint
cycle; after a crash the application restores to its last checkpoint
and replays the records appended since ("applications require custom
code during restore to repair data structures based on the log").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ChecksumError, ObjectStoreError
from repro.fault import names as fault_names
from repro.hw.device import IoTicket
from repro.objstore.alloc import Extent
from repro.objstore.record import (
    HEADER_SIZE,
    KIND_LOG,
    pack_record,
    unpack_header,
    unpack_record,
)
from repro.objstore.store import ObjectStore


@dataclass
class LogAppend:
    """Result of one append: sequence number + durability ticket."""

    seq: int
    extent: Extent
    ticket: IoTicket


class PersistentLog:
    """An append-only log region carved out of the object store."""

    def __init__(self, store: ObjectStore, owner_oid: int,
                 capacity: int = 64 * 1024 * 1024,
                 region: Optional[Extent] = None):
        self.store = store
        self.owner_oid = owner_oid
        if region is None:
            region = store.allocator.allocate(capacity)
        else:
            # Re-opening a known region (post-crash scan): claim it if
            # the rebuilt allocator still considers it free.  A slot a
            # dropped superblock write left stale can name extents that
            # were reclaimed and since carved into this log; the rebuild
            # kept them as garbage, but the log's bytes are live, so its
            # claim wins and reclaim never frees them under it.
            for extent in [e for e in store.garbage
                           if e.offset < region.end and region.offset < e.end]:
                del store.garbage[extent]
                store.allocator.free(extent)
            try:
                store.allocator.reserve(region)
            except ValueError:
                pass  # already reserved by the caller
        self.region = region
        self.head = 0  # write offset within the region
        self.next_seq = 1
        #: seq of the first record NOT covered by a checkpoint yet
        self.checkpoint_seq = 1
        self._extents: list[tuple[int, Extent]] = []
        store.register_log(self)

    @property
    def capacity(self) -> int:
        return self.region.length

    @property
    def used(self) -> int:
        return self.head

    def append(self, payload: bytes, sync: bool = True) -> LogAppend:
        """``sls_ntflush``: append + low-latency flush.

        With ``sync`` the virtual clock advances to durability (the
        calling application waits for its commit point, like an fsync
        of a WAL record — but a single sequential device write, not a
        filesystem journal dance).
        """
        if self.store.faults is not None and self.store.faults.active:
            self.store._failpoint(
                fault_names.FP_LOG_APPEND,
                f"power cut appending seq {self.next_seq}",
                "injected log-append failure",
                owner=self.owner_oid, seq=self.next_seq,
            )
        record = pack_record(
            kind=KIND_LOG, oid=self.owner_oid, epoch=self.next_seq, payload=payload
        )
        if self.head + len(record) > self.capacity:
            raise ObjectStoreError("persistent log full; checkpoint to truncate")
        extent = Extent(self.region.offset + self.head, len(record))
        ticket = self.store.volume.write_data(extent.offset, record, sync=sync)
        self.head += len(record)
        entry = LogAppend(seq=self.next_seq, extent=extent, ticket=ticket)
        self._extents.append((self.next_seq, extent))
        self.next_seq += 1
        return entry

    def truncate_before(self, seq: int) -> int:
        """A checkpoint covered everything below ``seq``; drop it.

        Returns the number of records truncated.  (Space is recycled
        wholesale when the log wraps logically: entries are copied
        forward only in the in-memory index — on disk the region is
        sequentially reused, as the records below ``seq`` are dead.)
        """
        kept = [(s, e) for s, e in self._extents if s >= seq]
        truncated = len(self._extents) - len(kept)
        self._extents = kept
        self.checkpoint_seq = max(self.checkpoint_seq, seq)
        if not kept:
            self.head = 0
        return truncated

    def replay(self, since_seq: int = 0) -> list[tuple[int, bytes]]:
        """Read back (seq, payload) for records at or after ``since_seq``.

        Used on restore to repair application state newer than the
        checkpoint.  Corrupt (torn) tail records end the replay — a
        torn tail is expected after a crash mid-append.
        """
        out: list[tuple[int, bytes]] = []
        for seq, extent in self._extents:
            if seq < since_seq:
                continue
            raw = self.store.volume.read_data(extent.offset, extent.length)
            try:
                header, payload = unpack_record(raw)
            except ChecksumError:
                break
            out.append((header.epoch, payload))
        return out

    def scan_region(self) -> list[tuple[int, bytes]]:
        """Crash-recovery scan: walk the region from offset 0, stopping
        at the first record that fails to parse or verify."""
        out: list[tuple[int, bytes]] = []
        pos = 0
        while pos + HEADER_SIZE <= self.capacity:
            head_raw = self.store.volume.read_data(
                self.region.offset + pos, HEADER_SIZE
            )
            try:
                header = unpack_header(head_raw)
            except (ChecksumError, ObjectStoreError):
                break
            # a length running past the region is damage: never read it
            if header.kind != KIND_LOG or pos + HEADER_SIZE + header.length > self.capacity:
                break
            raw = self.store.volume.read_data(
                self.region.offset + pos, HEADER_SIZE + header.length
            )
            try:
                header, payload = unpack_record(raw)
            except ChecksumError:
                break
            out.append((header.epoch, payload))
            pos += HEADER_SIZE + header.length
        return out

    def close(self) -> None:
        self.store.allocator.free(self.region)
