"""First-class kernel objects.

Aurora's architectural bet (paper §1-2): treat *every* POSIX primitive
— processes, file descriptors, pipes, sockets, SysV IPC — as a first
class kernel object that knows how to serialize itself, rather than
reconstructing state through the syscall boundary like CRIU.  The
:class:`ObjectRegistry` is the kernel-wide identity map the SLS
orchestrator walks; serializers are registered per ``otype`` in
:mod:`repro.serial.registry`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, TypeVar

from repro.errors import PosixError

T = TypeVar("T", bound="KernelObject")


class KernelObject:
    """Base class for everything the kernel can checkpoint.

    Attributes:
        koid: kernel-wide object id, drawn from the kernel's registry
            when the object is built and stable for its lifetime (and
            recorded in checkpoints so restores can re-link the object
            graph).
        otype: short type tag keying the serializer registry.
    """

    otype = "object"

    def __init__(self, registry: "ObjectRegistry"):
        self.koid = next(registry.koids)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} koid={self.koid}>"


class ObjectRegistry:
    """The kernel's identity map of live kernel objects.

    It also numbers them: every kernel object built for this kernel
    takes its koid here, registered or not, and every thread its tid,
    so a kernel's ids never depend on what else the process built.
    """

    def __init__(self):
        self._objects: dict[int, KernelObject] = {}
        self.koids = itertools.count(1)
        self.tids = itertools.count(100000)

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, koid: int) -> bool:
        return koid in self._objects

    def register(self, obj: T) -> T:
        if obj.koid in self._objects:
            raise PosixError(f"koid {obj.koid} already registered")
        self._objects[obj.koid] = obj
        return obj

    def unregister(self, obj: KernelObject) -> None:
        self._objects.pop(obj.koid, None)

    def get(self, koid: int) -> Optional[KernelObject]:
        return self._objects.get(koid)

    def lookup(self, koid: int) -> KernelObject:
        obj = self._objects.get(koid)
        if obj is None:
            raise PosixError(f"no kernel object with koid {koid}", errno="ENOENT")
        return obj

    def by_type(self, otype: str) -> Iterator[KernelObject]:
        return (o for o in self._objects.values() if o.otype == otype)

    def all_objects(self) -> list[KernelObject]:
        return list(self._objects.values())
