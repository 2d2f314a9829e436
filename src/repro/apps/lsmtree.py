"""A RocksDB-like log-structured merge tree.

The paper's other database port: "RocksDB ... uses a log structured
merge tree"; its WAL-fsync path is replaced with Aurora's persistent
log (``sls_ntflush``) and its memtable is persisted by checkpoints
instead of being rebuilt from the WAL.

The LSM machinery itself is implemented for real — memtable,
write-ahead log, SSTable flushes with sorted runs, leveled compaction,
point lookups newest-to-oldest — so both persistence engines run the
same database code and only the commit path differs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.apps.base import SimApp
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Container, Kernel
from repro.units import USEC


@dataclass
class SSTable:
    """One immutable sorted run."""

    path: str
    level: int
    keys: list[bytes] = field(default_factory=list)
    #: parallel to keys; None is a tombstone
    values: list[Optional[bytes]] = field(default_factory=list)

    def get(self, key: bytes):
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return True, self.values[i]
        return False, None


def _encode_run(keys: list[bytes], values: list[Optional[bytes]]) -> bytes:
    out = bytearray()
    for key, value in zip(keys, values):
        tomb = b"\x01" if value is None else b"\x00"
        val = value or b""
        out += len(key).to_bytes(4, "little") + key
        out += tomb + len(val).to_bytes(4, "little") + val
    return bytes(out)


def _decode_run(raw: bytes) -> tuple[list[bytes], list[Optional[bytes]]]:
    keys: list[bytes] = []
    values: list[Optional[bytes]] = []
    pos = 0
    while pos < len(raw):
        klen = int.from_bytes(raw[pos : pos + 4], "little"); pos += 4
        key = raw[pos : pos + klen]; pos += klen
        tomb = raw[pos : pos + 1]; pos += 1
        vlen = int.from_bytes(raw[pos : pos + 4], "little"); pos += 4
        value = raw[pos : pos + vlen]; pos += vlen
        keys.append(key)
        values.append(None if tomb == b"\x01" else value)
    return keys, values


class LsmTree(SimApp):
    """The database engine (persistence-agnostic core)."""

    MEMTABLE_LIMIT = 256  # entries before a flush
    LEVEL_FANOUT = 4      # runs per level before compaction
    WRITE_COMPUTE_NS = 3 * USEC
    READ_COMPUTE_NS = 2 * USEC

    def __init__(
        self,
        kernel: Kernel,
        container: Optional[Container] = None,
        name: str = "rocksdb",
        data_dir: str = "/rocksdb",
        commit_log: Optional[Callable[[bytes], None]] = None,
    ):
        super().__init__(kernel, name, container=container)
        self.data_dir = data_dir
        try:
            self.sys.mkdir(data_dir)
        except Exception:
            pass
        self.memtable: dict[bytes, Optional[bytes]] = {}
        self.levels: dict[int, list[SSTable]] = {}
        self._sst_seq = 0
        #: the commit path: WAL fsync (classic) or sls_ntflush (Aurora)
        self.commit_log = commit_log
        self.flushes = 0
        self.compactions = 0

    # -- write path ------------------------------------------------------------

    def put(self, key: bytes, value: Optional[bytes]) -> None:
        record = _encode_run([key], [value])
        if self.commit_log is not None:
            self.commit_log(record)
        self.memtable[key] = value
        self.compute(self.WRITE_COMPUTE_NS)
        if len(self.memtable) >= self.MEMTABLE_LIMIT:
            self.flush_memtable()

    def delete(self, key: bytes) -> None:
        self.put(key, None)

    def flush_memtable(self) -> Optional[SSTable]:
        if not self.memtable:
            return None
        keys = sorted(self.memtable)
        values = [self.memtable[k] for k in keys]
        self._sst_seq += 1
        path = f"{self.data_dir}/sst-{self._sst_seq:06d}.sst"
        fd = self.sys.open(path, O_RDWR | O_CREAT)
        self.sys.write(fd, _encode_run(keys, values))
        self.sys.close(fd)
        table = SSTable(path=path, level=0, keys=keys, values=values)
        self.levels.setdefault(0, []).append(table)
        self.memtable.clear()
        self.flushes += 1
        self._maybe_compact(0)
        return table

    def _maybe_compact(self, level: int) -> None:
        runs = self.levels.get(level, [])
        if len(runs) < self.LEVEL_FANOUT:
            return
        merged: dict[bytes, Optional[bytes]] = {}
        # Oldest first so newer runs overwrite.
        for table in runs:
            for key, value in zip(table.keys, table.values):
                merged[key] = value
            self.sys.unlink(table.path)
        keys = sorted(merged)
        values = [merged[k] for k in keys]
        self._sst_seq += 1
        path = f"{self.data_dir}/sst-{self._sst_seq:06d}.sst"
        fd = self.sys.open(path, O_RDWR | O_CREAT)
        self.sys.write(fd, _encode_run(keys, values))
        self.sys.close(fd)
        self.levels[level] = []
        out = SSTable(path=path, level=level + 1, keys=keys, values=values)
        self.levels.setdefault(level + 1, []).append(out)
        self.compactions += 1
        self._maybe_compact(level + 1)

    # -- read path ---------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        self.compute(self.READ_COMPUTE_NS)
        if key in self.memtable:
            return self.memtable[key]
        for level in sorted(self.levels):
            for table in reversed(self.levels[level]):
                found, value = table.get(key)
                if found:
                    return value
        return None

    def entry_count(self) -> int:
        """Distinct live keys across memtable + all levels."""
        merged: dict[bytes, Optional[bytes]] = {}
        for level in sorted(self.levels, reverse=True):
            for table in self.levels[level]:
                for key, value in zip(table.keys, table.values):
                    merged[key] = value
        merged.update(self.memtable)
        return sum(1 for v in merged.values() if v is not None)


class ClassicWal:
    """Upstream RocksDB commit path: WAL append + fsync per write."""

    FSYNC_EXTRA_IOS = 2

    def __init__(self, device, base_offset: int = 0):
        self.device = device
        self._head = base_offset
        self.records = 0
        self.bytes = 0

    def __call__(self, record: bytes) -> None:
        self.device.write(self._head, record)
        for _ in range(self.FSYNC_EXTRA_IOS):
            self.device.write(self._head + len(record), b"\x00" * 512)
        self._head += len(record) + 1024
        self.records += 1
        self.bytes += len(record)


class AuroraLog:
    """The port's commit path: one ``sls_ntflush`` per write batch."""

    def __init__(self, api):
        self.api = api
        self.records = 0

    def __call__(self, record: bytes) -> None:
        self.api.sls_ntflush(record, sync=True)
        self.records += 1

    def replay_into(self, tree: LsmTree) -> int:
        """Restore-time repair: re-apply records newer than the image."""
        applied = 0
        for _seq, payload in self.api.sls_log_replay():
            keys, values = _decode_run(payload)
            for key, value in zip(keys, values):
                tree.memtable[key] = value
            applied += 1
        return applied
