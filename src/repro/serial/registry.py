"""Serializer registry and contexts.

"Each POSIX object in the operating system contains code that
continuously serializes and stores the state in the object store.
Each object is serialized independently, and contains enough user and
kernel state to recreate the object on restore." (paper §3)

Serializers are registered per kernel-object type tag; the group
serializer in :mod:`repro.serial.procsnap` walks the object graph
reachable from the persisted processes and dispatches here.  Restore
runs the same registry in reverse, re-linking shared objects (dup'ed
descriptors, socket peers, shared memory) through koid maps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SlsError
from repro.posix.kernel import Kernel
from repro.posix.objects import KernelObject

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.vmobject import VMObject
    from repro.posix.vnode import Vnode


class Serializer:
    """Interface for per-type serializers."""

    otype = "object"

    def serialize(self, obj: KernelObject, ctx: "SerialContext") -> dict:
        raise NotImplementedError

    def restore(self, data: dict, ctx: "RestoreContext") -> KernelObject:
        raise NotImplementedError


_REGISTRY: dict[str, Serializer] = {}


def register(serializer_cls: type) -> type:
    """Class decorator registering a serializer by its ``otype``."""
    instance = serializer_cls()
    if instance.otype in _REGISTRY:
        raise SlsError(f"duplicate serializer for otype {instance.otype!r}")
    _REGISTRY[instance.otype] = instance
    return serializer_cls


def serializer_for(otype: str) -> Serializer:
    serializer = _REGISTRY.get(otype)
    if serializer is None:
        raise SlsError(f"no serializer registered for otype {otype!r}")
    return serializer


def registered_types() -> list[str]:
    return sorted(_REGISTRY)


class SerialContext:
    """Carried through one checkpoint's metadata pass."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        #: koids serialized so far (sharing: serialize each object once)
        self.seen: set[int] = set()
        #: number of kernel objects serialized (cost accounting)
        self.objects_serialized = 0
        #: vnodes encountered via open files, by ino
        self.vnodes: dict[int, "Vnode"] = {}
        #: vnode paths recorded at open() time, by ino
        self.vnode_paths: dict[int, str] = {}

    def mark(self, obj: KernelObject) -> bool:
        """True if the object still needs serializing (first visit)."""
        if obj.koid in self.seen:
            return False
        self.seen.add(obj.koid)
        self.objects_serialized += 1
        return True


class RestoreContext:
    """Carried through one restore: identity maps for re-linking."""

    def __init__(self, kernel: Kernel, *, captured_here: bool):
        self.kernel = kernel
        #: the image was captured by ``kernel`` itself, so its original
        #: ids name this kernel's objects and may be looked up in it
        #: (an in-place rollback); any other kernel numbers its own
        self.captured_here = captured_here
        #: original koid -> restored kernel object
        self.objects: dict[int, KernelObject] = {}
        #: original VM object oid -> restored VMObject
        self.vm_objects: dict[int, "VMObject"] = {}
        #: original vnode ino -> restored vnode
        self.vnodes: dict[int, "Vnode"] = {}
        #: original pid -> restored Process
        self.pids: dict[int, "KernelObject"] = {}
        #: number of kernel objects restored (cost accounting)
        self.objects_restored = 0
        #: map entries rebuilt / address spaces created (Table 4's
        #: "memory state" row is charged from these)
        self.entries_restored = 0
        self.aspaces_created = 0
        #: deferred fixups run after every object exists (peer links)
        self._fixups: list[Callable[[], None]] = []

    def remember(self, original_koid: int, obj: KernelObject) -> KernelObject:
        self.objects[original_koid] = obj
        self.objects_restored += 1
        return obj

    def resolve(self, original_koid: int) -> Optional[KernelObject]:
        return self.objects.get(original_koid)

    def defer(self, fixup: Callable[[], None]) -> None:
        self._fixups.append(fixup)

    def run_fixups(self) -> None:
        for fixup in self._fixups:
            fixup()
        self._fixups.clear()
