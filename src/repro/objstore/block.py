"""The volume layer: superblock slots + data area on one device.

The object store updates its superblock with an A/B slot scheme: the
new superblock goes to the inactive slot with a monotonically
increasing generation, so a crash mid-update leaves the previous
generation intact.  Recovery picks the newest slot whose checksum
verifies — a torn final checkpoint is thereby discarded as a unit.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ChecksumError, ObjectStoreError
from repro.hw.device import BatchWrite, IoTicket, StorageDevice
from repro.objstore.record import KIND_SUPER, pack_record, unpack_record

SUPERBLOCK_SLOT_SIZE = 8 * 1024
DATA_BASE = 2 * SUPERBLOCK_SLOT_SIZE


class Volume:
    """Device + superblock management for one object store."""

    def __init__(self, device: StorageDevice):
        self.device = device
        self.generation = 0

    @property
    def data_base(self) -> int:
        return DATA_BASE

    @property
    def data_size(self) -> int:
        return self.device.capacity - DATA_BASE

    # -- superblock ------------------------------------------------------------

    def write_superblock(self, payload_value: bytes) -> IoTicket:
        """Write the next-generation superblock to the inactive slot.

        The volume computes the cross-queue ordering barrier itself:
        the command starts no earlier than the device's pending
        deadline, so the superblock is durable only after every record
        submitted before it — on *every* submission queue (per-queue
        FIFO alone cannot order it behind a sharded flush).  There is
        no way to ask for less.  Superblock writes go out on queue 0.
        """
        self.generation += 1
        record = pack_record(
            kind=KIND_SUPER, oid=0, epoch=self.generation, payload=payload_value
        )
        if len(record) > SUPERBLOCK_SLOT_SIZE:
            raise ObjectStoreError(
                f"superblock of {len(record)} bytes exceeds slot size"
            )
        slot = self.generation % 2
        offset = slot * SUPERBLOCK_SLOT_SIZE
        return self.device.write_async(
            offset, record, release_ns=self.device.pending_deadline()
        )

    def read_superblock(self) -> Optional[tuple[int, bytes]]:
        """Return (generation, payload) of the newest valid superblock."""
        best: Optional[tuple[int, bytes]] = None
        for slot in (0, 1):
            offset = slot * SUPERBLOCK_SLOT_SIZE
            raw = self.device.read(offset, SUPERBLOCK_SLOT_SIZE)
            try:
                header, payload = unpack_record(raw)
            except (ChecksumError, ObjectStoreError):
                continue
            if header.kind != KIND_SUPER:
                continue
            if best is None or header.epoch > best[0]:
                best = (header.epoch, payload)
        if best is not None:
            self.generation = max(self.generation, best[0])
        return best

    # -- data area -------------------------------------------------------------

    def write_data(self, offset: int, data: bytes, sync: bool = False,
                   logical: int | None = None, queue: int = 0) -> IoTicket:
        if offset < DATA_BASE:
            raise ObjectStoreError("data write into superblock area")
        if sync:
            return self.device.write(offset, data, logical_nbytes=logical,
                                     queue=queue)
        return self.device.write_async(offset, data, logical_nbytes=logical,
                                       queue=queue)

    def write_data_batch(self, writes: Sequence[BatchWrite],
                         queue: int = 0) -> list[IoTicket]:
        """Submit coalesced data extents with one doorbell on ``queue``."""
        for write in writes:
            if write.offset < DATA_BASE:
                raise ObjectStoreError("data write into superblock area")
        return self.device.write_batch(writes, queue=queue)

    def read_data(self, offset: int, nbytes: int, logical: int | None = None,
                  queue: int = 0) -> bytes:
        if offset < DATA_BASE:
            raise ObjectStoreError("data read from superblock area")
        return self.device.read(offset, nbytes, logical_nbytes=logical,
                                queue=queue)

    def read_data_async(self, offset: int, nbytes: int,
                        logical: int | None = None,
                        queue: int = 0) -> tuple[IoTicket, bytes]:
        """Queue a data-area read on ``queue`` without advancing the
        clock to completion (restore fan-out across queues)."""
        if offset < DATA_BASE:
            raise ObjectStoreError("data read from superblock area")
        return self.device.read_async(offset, nbytes, logical_nbytes=logical,
                                      queue=queue)

    def flush_barrier(self) -> int:
        return self.device.flush_barrier()
