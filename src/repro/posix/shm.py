"""System V and POSIX shared memory.

Shared memory is *the* case that motivates Aurora's custom COW: several
processes map one :class:`~repro.mem.vmobject.VMObject`, and a
checkpoint must preserve sharing — the fork-style scheme would hand
each process a private copy on the first post-checkpoint write.
Segments are first-class kernel objects serialized once, regardless of
how many processes attach them.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NoSuchFile, PosixError
from repro.mem.phys import PhysicalMemory
from repro.mem.vmobject import VMObject
from repro.posix.objects import KernelObject, ObjectRegistry
from repro.units import page_align_up, pages


class SharedMemorySegment(KernelObject):
    """One SysV shm segment (or POSIX shm object, by name)."""

    otype = "shm"

    def __init__(self, registry: ObjectRegistry, key: int, size: int,
                 vm_object: VMObject, name: str = ""):
        super().__init__(registry)
        self.key = key
        self.size = size
        self.vm_object = vm_object
        self.name = name
        self.attach_count = 0
        self.marked_removed = False

    def __repr__(self) -> str:
        return f"<ShmSegment key={self.key} size={self.size} attached={self.attach_count}>"


class SharedMemoryRegistry:
    """The kernel's table of shm segments (SysV keys + POSIX names)."""

    IPC_PRIVATE = 0

    def __init__(self, phys: PhysicalMemory, registry: ObjectRegistry):
        self.phys = phys
        self.registry = registry
        self._by_key: dict[int, SharedMemorySegment] = {}
        self._by_name: dict[str, SharedMemorySegment] = {}
        self._next_private = -1

    # -- SysV ------------------------------------------------------------

    def shmget(self, key: int, size: int, create: bool = True) -> SharedMemorySegment:
        if key != self.IPC_PRIVATE and key in self._by_key:
            return self._by_key[key]
        if not create:
            raise NoSuchFile(f"no shm segment with key {key}")
        if size <= 0:
            raise PosixError("shm size must be positive", errno="EINVAL")
        if key == self.IPC_PRIVATE:
            key = self._next_private
            self._next_private -= 1
        size = page_align_up(size)
        vm_object = VMObject(self.phys, size_pages=pages(size), name=f"shm:{key}")
        segment = SharedMemorySegment(
            self.registry, key=key, size=size, vm_object=vm_object
        )
        self._by_key[key] = segment
        return segment

    def shmrm(self, key: int) -> None:
        """``IPC_RMID``: remove once the last attach detaches."""
        segment = self._by_key.get(key)
        if segment is None:
            raise NoSuchFile(f"no shm segment with key {key}")
        segment.marked_removed = True
        if segment.attach_count == 0:
            self._destroy(segment)

    # -- POSIX -----------------------------------------------------------

    def shm_open(self, name: str, size: int) -> SharedMemorySegment:
        if name in self._by_name:
            return self._by_name[name]
        segment = self.shmget(self.IPC_PRIVATE, size)
        segment.name = name
        self._by_name[name] = segment
        return segment

    def shm_unlink(self, name: str) -> None:
        segment = self._by_name.pop(name, None)
        if segment is None:
            raise NoSuchFile(f"no shm object {name!r}")
        segment.marked_removed = True
        if segment.attach_count == 0:
            self._destroy(segment)

    # -- shared ------------------------------------------------------------

    def note_attach(self, segment: SharedMemorySegment) -> None:
        segment.attach_count += 1

    def note_detach(self, segment: SharedMemorySegment) -> None:
        if segment.attach_count <= 0:
            raise AssertionError("detach without attach")
        segment.attach_count -= 1
        if segment.attach_count == 0 and segment.marked_removed:
            self._destroy(segment)

    def _destroy(self, segment: SharedMemorySegment) -> None:
        self._by_key.pop(segment.key, None)
        if segment.name:
            self._by_name.pop(segment.name, None)
        segment.vm_object.unref()

    def get(self, key: int) -> Optional[SharedMemorySegment]:
        return self._by_key.get(key)

    def segments(self) -> list[SharedMemorySegment]:
        return list(self._by_key.values())
