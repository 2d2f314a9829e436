"""First-class kernel objects.

Aurora's architectural bet (paper §1-2): treat *every* POSIX primitive
— processes, file descriptors, pipes, sockets, SysV IPC — as a first
class kernel object that knows how to serialize itself, rather than
reconstructing state through the syscall boundary like CRIU.  The
checkpoint reaches the object graph from the group's processes
(:func:`repro.serial.procsnap.serialize_group`); serializers are
registered per ``otype`` in :mod:`repro.serial.registry`.
"""

from __future__ import annotations

import itertools


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
    """Numbers the kernel's objects; it does not index them.

    Every kernel object built for this kernel takes its koid here, and
    every thread its tid, so a kernel's ids never depend on what else
    the process built.  Nothing keeps a reference to the objects: what
    no process reaches is garbage.
    """

    def __init__(self):
        self.koids = itertools.count(1)
        self.tids = itertools.count(100000)
