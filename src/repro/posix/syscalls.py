"""The syscall layer simulated applications program against.

A :class:`Syscalls` instance binds one process to the kernel and
exposes the POSIX surface the workloads in :mod:`repro.apps` use.
Every call charges syscall entry/exit overhead to the virtual clock,
so application phases accumulate realistic time.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PosixError
from repro.mem.address_space import PROT_RW, VMEntry
from repro.posix.fd import O_RDWR, OpenFile
from repro.posix.kernel import Kernel
from repro.posix.pipe import make_pipe
from repro.posix.process import Process
from repro.posix.shm import SharedMemorySegment
from repro.posix.socket import SocketFile, UnixSocket, socketpair
from repro.posix.vnode import VnodeFile


class Syscalls:
    """POSIX syscalls for one process on one kernel."""

    def __init__(self, kernel: Kernel, proc: Process):
        self.kernel = kernel
        self.proc = proc

    def _charge(self) -> None:
        self.kernel.mem.charge(self.kernel.mem.cpu.syscall_ns)

    # -- identity -------------------------------------------------------------

    def getpid(self) -> int:
        self._charge()
        return self.proc.pid

    # -- memory ----------------------------------------------------------------

    def mmap(
        self,
        length: int,
        prot: int = PROT_RW,
        shared: bool = False,
        addr: Optional[int] = None,
        name: str = "",
    ) -> VMEntry:
        self._charge()
        return self.proc.aspace.mmap(
            length=length, prot=prot, shared=shared, addr=addr, name=name
        )

    def munmap(self, addr: int, length: int) -> None:
        self._charge()
        self.proc.aspace.munmap(addr, length)

    def mprotect(self, addr: int, length: int, prot: int) -> None:
        self._charge()
        self.proc.aspace.mprotect(addr, length, prot)

    # Direct loads/stores are not syscalls, but they live here for the
    # apps' convenience; no syscall overhead is charged.
    def poke(self, addr: int, data: bytes) -> None:
        self.proc.aspace.write(addr, data)

    def peek(self, addr: int, nbytes: int) -> bytes:
        return self.proc.aspace.read(addr, nbytes)

    def populate(self, addr: int, nbytes: int, fill: bytes = b"",
                 fill_fn=None) -> int:
        """Bulk-fault a range resident (workload setup fast path)."""
        return self.proc.aspace.populate(addr, nbytes, fill=fill, fill_fn=fill_fn)

    # -- files -------------------------------------------------------------------

    def open(self, path: str, flags: int = O_RDWR) -> int:
        self._charge()
        file = self.kernel.vfs.open(path, flags)
        return self.proc.fdtable.install(file)

    def close(self, fd: int) -> None:
        self._charge()
        self.proc.fdtable.close(fd)

    def read(self, fd: int, nbytes: int) -> bytes:
        self._charge()
        return self.proc.fdtable.lookup(fd).read(nbytes)

    def write(self, fd: int, data: bytes) -> int:
        self._charge()
        return self.proc.fdtable.lookup(fd).write(data)

    def lseek(self, fd: int, offset: int) -> int:
        self._charge()
        return self.proc.fdtable.lookup(fd).seek(offset)

    def dup(self, fd: int, target: Optional[int] = None) -> int:
        self._charge()
        return self.proc.fdtable.dup(fd, target)

    def unlink(self, path: str) -> None:
        self._charge()
        self.kernel.vfs.unlink(path)

    def mkdir(self, path: str) -> None:
        self._charge()
        self.kernel.vfs.mkdir(path)

    def listdir(self, path: str) -> list[str]:
        self._charge()
        return self.kernel.vfs.listdir(path)

    def rename(self, src: str, dst: str) -> None:
        self._charge()
        self.kernel.vfs.rename(src, dst)

    def symlink(self, target: str, linkpath: str) -> None:
        self._charge()
        self.kernel.vfs.symlink(target, linkpath)

    def readlink(self, path: str) -> str:
        self._charge()
        return self.kernel.vfs.readlink(path)

    def fstat_file(self, fd: int) -> OpenFile:
        self._charge()
        return self.proc.fdtable.lookup(fd)

    # -- pipes & sockets -------------------------------------------------------------

    def pipe(self) -> tuple[int, int]:
        self._charge()
        read_end, write_end = make_pipe(self.kernel.registry)
        rfd = self.proc.fdtable.install(read_end)
        wfd = self.proc.fdtable.install(write_end)
        return rfd, wfd

    def socketpair(self) -> tuple[int, int]:
        self._charge()
        registry = self.kernel.registry
        sock_a, sock_b = socketpair(registry)
        file_a, file_b = SocketFile(registry, sock_a), SocketFile(registry, sock_b)
        return (
            self.proc.fdtable.install(file_a),
            self.proc.fdtable.install(file_b),
        )

    def bind_listen(self, name: str) -> int:
        self._charge()
        listener = self.kernel.unix_sockets.bind_listen(name)
        file = SocketFile(self.kernel.registry, listener)
        return self.proc.fdtable.install(file)

    def connect(self, name: str) -> int:
        self._charge()
        sock = self.kernel.unix_sockets.connect(name)
        file = SocketFile(self.kernel.registry, sock)
        return self.proc.fdtable.install(file)

    def accept(self, listen_fd: int) -> int:
        self._charge()
        listener_file = self.proc.fdtable.lookup(listen_fd)
        if not isinstance(listener_file, SocketFile):
            raise PosixError("accept on non-socket", errno="ENOTSOCK")
        sock = self.kernel.unix_sockets.accept(listener_file.socket)
        file = SocketFile(self.kernel.registry, sock)
        return self.proc.fdtable.install(file)

    def socket_of(self, fd: int) -> UnixSocket:
        file = self.proc.fdtable.lookup(fd)
        if not isinstance(file, SocketFile):
            raise PosixError("not a socket", errno="ENOTSOCK")
        return file.socket

    # -- SysV IPC ----------------------------------------------------------------------

    def shmget(self, key: int, size: int) -> SharedMemorySegment:
        self._charge()
        return self.kernel.shm.shmget(key, size)

    def shmat(self, segment: SharedMemorySegment) -> int:
        self._charge()
        entry = self.proc.aspace.mmap(
            length=segment.size,
            shared=True,
            obj=segment.vm_object,
            name=f"shm:{segment.key}",
        )
        self.kernel.shm.note_attach(segment)
        self.proc.shm_attachments[entry.start] = segment
        return entry.start

    def shmdt(self, addr: int) -> None:
        self._charge()
        segment = self.proc.shm_attachments.pop(addr, None)
        if segment is None:
            raise PosixError(f"no shm attached at {addr:#x}", errno="EINVAL")
        assert isinstance(segment, SharedMemorySegment)
        self.proc.aspace.munmap(addr, segment.size)
        self.kernel.shm.note_detach(segment)

    def msgget(self, key: int):
        self._charge()
        return self.kernel.msgqueues.msgget(key)

    def msgsnd(self, key: int, mtype: int, body: bytes) -> None:
        self._charge()
        self.kernel.msgqueues.msgget(key).send(mtype, body)

    def msgrcv(self, key: int, mtype: int = 0):
        self._charge()
        return self.kernel.msgqueues.msgget(key).receive(mtype)

    # -- processes --------------------------------------------------------------------------

    def fork(self) -> Process:
        self._charge()
        return self.kernel.fork(self.proc)

    def exit(self, status: int = 0) -> None:
        self._charge()
        self.kernel.exit(self.proc, status)

    def kill(self, pid: int, signo: int) -> None:
        self._charge()
        self.kernel.kill(pid, signo)

    def sigaction(self, signo: int, disposition: str) -> None:
        self._charge()
        self.proc.signals.set_handler(signo, disposition)
