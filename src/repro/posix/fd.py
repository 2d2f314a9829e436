"""File descriptors and open-file descriptions.

POSIX separates the per-process descriptor table from the kernel-level
*open file description* (offset + flags), which ``dup`` and ``fork``
share between descriptors and processes.  Aurora checkpoints open file
descriptions as first-class objects and re-links descriptor tables to
them on restore, so shared offsets keep being shared — one of the edge
cases CRIU reconstructs painfully through ``/proc``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import BadFileDescriptor, PosixError
from repro.posix.objects import KernelObject, ObjectRegistry

O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_ACCMODE = 0x3
O_NONBLOCK = 0x4
O_APPEND = 0x8
O_CREAT = 0x200
O_TRUNC = 0x400
O_EXCL = 0x800
O_CLOEXEC = 0x100000


class OpenFile(KernelObject):
    """A kernel open-file description (shared by dup'ed descriptors)."""

    otype = "openfile"

    def __init__(self, registry: ObjectRegistry, flags: int = O_RDWR):
        super().__init__(registry)
        self.flags = flags
        self.offset = 0
        #: number of FdTable slots (across all processes) pointing here
        self.refcount = 0

    # -- capabilities ------------------------------------------------------

    @property
    def readable(self) -> bool:
        return (self.flags & O_ACCMODE) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & O_ACCMODE) in (O_WRONLY, O_RDWR)

    # -- I/O; subclasses override what they support -------------------------

    def read(self, nbytes: int) -> bytes:
        raise PosixError("object does not support read", errno="ENODEV")

    def write(self, data: bytes) -> int:
        raise PosixError("object does not support write", errno="ENODEV")

    def seek(self, offset: int) -> int:
        raise PosixError("object is not seekable", errno="ESPIPE")

    # -- lifecycle -----------------------------------------------------------

    def incref(self) -> "OpenFile":
        self.refcount += 1
        return self

    def decref(self) -> None:
        if self.refcount <= 0:
            raise AssertionError(f"open file {self.koid} over-released")
        self.refcount -= 1
        if self.refcount == 0:
            self.on_last_close()

    def on_last_close(self) -> None:
        """Hook run when the last descriptor referencing this closes."""


@dataclass
class FdEntry:
    """One slot in a descriptor table."""

    file: OpenFile
    close_on_exec: bool = False


class FdTable:
    """Per-process descriptor table."""

    def __init__(self):
        self._slots: dict[int, FdEntry] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, fd: int) -> bool:
        return fd in self._slots

    def _lowest_free(self, minimum: int = 0) -> int:
        fd = minimum
        while fd in self._slots:
            fd += 1
        return fd

    def install(self, file: OpenFile, cloexec: bool = False, fd: Optional[int] = None) -> int:
        """Install ``file`` at the lowest free fd (or a specific one)."""
        if fd is None:
            fd = self._lowest_free()
        elif fd in self._slots:
            raise PosixError(f"fd {fd} already in use", errno="EEXIST")
        self._slots[fd] = FdEntry(file=file.incref(), close_on_exec=cloexec)
        return fd

    def lookup(self, fd: int) -> OpenFile:
        entry = self._slots.get(fd)
        if entry is None:
            raise BadFileDescriptor(f"bad file descriptor {fd}")
        return entry.file

    def entry(self, fd: int) -> FdEntry:
        entry = self._slots.get(fd)
        if entry is None:
            raise BadFileDescriptor(f"bad file descriptor {fd}")
        return entry

    def close(self, fd: int) -> None:
        entry = self._slots.pop(fd, None)
        if entry is None:
            raise BadFileDescriptor(f"bad file descriptor {fd}")
        entry.file.decref()

    def dup(self, fd: int, target: Optional[int] = None) -> int:
        """``dup``/``dup2``: new descriptor sharing the description."""
        file = self.lookup(fd)
        if target is None:
            return self.install(file)
        if target == fd:
            return fd
        if target in self._slots:
            self.close(target)
        return self.install(file, fd=target)

    def close_all(self) -> None:
        for fd in list(self._slots):
            self.close(fd)

    def fork_copy(self) -> "FdTable":
        """Child table after fork: same descriptions, new slots."""
        child = FdTable()
        for fd, entry in self._slots.items():
            child._slots[fd] = FdEntry(
                file=entry.file.incref(), close_on_exec=entry.close_on_exec
            )
        return child

    def descriptors(self) -> list[int]:
        return sorted(self._slots)

    def items(self) -> list[tuple[int, FdEntry]]:
        return sorted(self._slots.items())
