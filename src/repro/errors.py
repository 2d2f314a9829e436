"""Exception hierarchy for the Aurora reproduction.

Every subsystem raises a subclass of :class:`AuroraError` so callers can
catch at the granularity they care about (a whole ``except AuroraError``
at the CLI boundary, or a specific ``except CheckpointError`` inside the
orchestrator).
"""

from __future__ import annotations


class AuroraError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(AuroraError):
    """Misuse of the simulation substrate (clock, events, RNG)."""


class ClockError(SimulationError):
    """Attempt to move the virtual clock backwards or misuse timers."""


class FaultError(SimulationError):
    """Misuse of the fault-injection plane (bad action for a site)."""


class HardwareError(AuroraError):
    """Base class for simulated-device failures."""


class DeviceFullError(HardwareError):
    """A storage device ran out of capacity."""


class DeviceIOError(HardwareError):
    """An injected or modelled I/O failure."""


class MemoryError_(AuroraError):
    """Base class for VM subsystem errors.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class OutOfMemoryError(MemoryError_):
    """The simulated physical memory pool is exhausted."""


class SegmentationFault(MemoryError_):
    """Access to an unmapped or protection-violating address."""

    def __init__(self, address: int, message: str = ""):
        self.address = address
        super().__init__(message or f"segmentation fault at {address:#x}")


class MappingError(MemoryError_):
    """Invalid mmap/munmap/mprotect request."""


class PosixError(AuroraError):
    """Base class for simulated-kernel (POSIX layer) errors.

    Carries an errno-style symbolic code so syscall-level tests can
    assert on the specific failure.
    """

    errno = "EINVAL"

    def __init__(self, message: str = "", errno: str | None = None):
        if errno is not None:
            self.errno = errno
        super().__init__(message or self.errno)


class BadFileDescriptor(PosixError):
    errno = "EBADF"


class NoSuchProcess(PosixError):
    errno = "ESRCH"


class NoSuchFile(PosixError):
    errno = "ENOENT"


class FileExists(PosixError):
    errno = "EEXIST"


class NotADirectory(PosixError):
    errno = "ENOTDIR"


class IsADirectory(PosixError):
    errno = "EISDIR"


class DirectoryNotEmpty(PosixError):
    errno = "ENOTEMPTY"


class BrokenPipe(PosixError):
    errno = "EPIPE"


class WouldBlock(PosixError):
    errno = "EAGAIN"


class NotConnected(PosixError):
    errno = "ENOTCONN"


class ConnectionRefused(PosixError):
    errno = "ECONNREFUSED"


class PermissionError_(PosixError):
    errno = "EPERM"


class ObjectStoreError(AuroraError):
    """Base class for object-store failures."""


class ChecksumError(ObjectStoreError):
    """A record failed checksum verification (torn/corrupt write)."""


class ImageFormatError(ObjectStoreError):
    """A snapshot's records checksum but do not spell an image (value +
    slot map, see :mod:`repro.objstore.image`)."""


class NoSuchObject(ObjectStoreError):
    """Lookup of an OID or snapshot that does not exist on the store."""


class StoreFullError(ObjectStoreError):
    """No free run fits the allocation, reclaimed space included."""


class SlsError(AuroraError):
    """Base class for SLS orchestrator/API errors."""


class CheckpointError(SlsError):
    """A checkpoint operation failed."""


class RestoreError(SlsError):
    """A restore operation failed or the image is unusable."""


class RollbackError(SlsError):
    """Rollback requested with no checkpoint to roll back to."""


class NotPersisted(SlsError):
    """Operation on a process that is not in any persistence group."""


class BackendError(SlsError):
    """Persistence-group backend attach/detach/flush failure."""


class MigrationError(SlsError):
    """send/recv or live-migration failure."""
