"""Processes, threads, and CPU state.

A full restore must reproduce "all state (i.e., CPU registers, OS
state, and memory)"; :class:`CpuState` carries the register file the
checkpoint captures, and :class:`Process` ties together the address
space, file descriptor table, signal state, credentials, and the
process-tree links that ``sls restore`` rebuilds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import NoSuchProcess
from repro.mem.address_space import AddressSpace
from repro.posix.objects import KernelObject, ObjectRegistry
from repro.posix.signals import SignalState

if TYPE_CHECKING:  # pragma: no cover
    from repro.posix.fd import FdTable

#: amd64 general-purpose register names, as a checkpoint captures them.
GP_REGISTERS = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)


@dataclass
class CpuState:
    """One thread's register file (trap frame + FPU tag)."""

    rip: int = 0x401000
    rflags: int = 0x202
    gp: dict[str, int] = field(default_factory=lambda: {r: 0 for r in GP_REGISTERS})
    fs_base: int = 0
    #: opaque FPU/XMM area; checkpoints treat it as a byte blob
    fpu: bytes = b"\x00" * 64

    def copy(self) -> "CpuState":
        return CpuState(
            rip=self.rip,
            rflags=self.rflags,
            gp=dict(self.gp),
            fs_base=self.fs_base,
            fpu=self.fpu,
        )


class ThreadState(enum.Enum):
    RUNNING = "running"
    SLEEPING = "sleeping"    # blocked in a syscall
    STOPPED = "stopped"      # paused at a serialization barrier
    ZOMBIE = "zombie"


class Thread(KernelObject):
    """A kernel thread; Aurora checkpoints each one independently."""

    otype = "thread"

    def __init__(self, registry: ObjectRegistry, proc: "Process",
                 cpu: Optional[CpuState] = None):
        super().__init__(registry)
        self.tid = next(registry.tids)
        self.proc = proc
        self.cpu = cpu or CpuState()
        self.state = ThreadState.RUNNING
        #: what the thread is blocked on, for restore fidelity
        self.wait_channel: str | None = None

    def stop(self) -> None:
        if self.state == ThreadState.RUNNING:
            self.state = ThreadState.STOPPED

    def resume(self) -> None:
        if self.state == ThreadState.STOPPED:
            self.state = ThreadState.RUNNING


class ProcessState(enum.Enum):
    ALIVE = "alive"
    STOPPED = "stopped"
    ZOMBIE = "zombie"
    DEAD = "dead"


class Process(KernelObject):
    """A process: address space + FDs + threads + tree links."""

    otype = "process"

    def __init__(
        self,
        registry: ObjectRegistry,
        pid: int,
        name: str,
        aspace: AddressSpace,
        fdtable: "FdTable",
        parent: Optional["Process"] = None,
        container_id: int = 0,
    ):
        super().__init__(registry)
        self.pid = pid
        self.name = name
        self.aspace = aspace
        self.fdtable = fdtable
        self.parent = parent
        self.children: list[Process] = []
        self.threads: list[Thread] = [Thread(registry, self)]
        self.signals = SignalState()
        self.state = ProcessState.ALIVE
        self.exit_status: Optional[int] = None
        self.cwd = "/"
        self.umask = 0o022
        self.pgid = pid
        self.sid = pid
        self.uid = 0
        self.gid = 0
        self.container_id = container_id
        self.argv: list[str] = [name]
        self.env: dict[str, str] = {}
        #: attach address -> SharedMemorySegment (shmat bookkeeping)
        self.shm_attachments: dict[int, object] = {}
        if parent is not None:
            parent.children.append(self)

    @property
    def ppid(self) -> int:
        return self.parent.pid if self.parent else 0

    @property
    def main_thread(self) -> Thread:
        return self.threads[0]

    def stop_all_threads(self) -> int:
        """Pause every thread (the per-process half of a barrier)."""
        stopped = 0
        for thread in self.threads:
            if thread.state == ThreadState.RUNNING:
                thread.stop()
                stopped += 1
        self.state = ProcessState.STOPPED
        return stopped

    def resume_all_threads(self) -> None:
        for thread in self.threads:
            thread.resume()
        if self.state == ProcessState.STOPPED:
            self.state = ProcessState.ALIVE

    def walk_tree(self) -> Iterator["Process"]:
        """This process and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk_tree()

    def is_alive(self) -> bool:
        return self.state in (ProcessState.ALIVE, ProcessState.STOPPED)

    def __repr__(self) -> str:
        return f"<Process pid={self.pid} {self.name!r} {self.state.value}>"


class ProcessTable:
    """PID allocation and lookup."""

    def __init__(self, first_pid: int = 1):
        self._procs: dict[int, Process] = {}
        self._next_pid = first_pid

    def __len__(self) -> int:
        return len(self._procs)

    def allocate_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def force_pid(self, pid: int) -> int:
        """Claim a specific PID (restores recreate original PIDs)."""
        if pid in self._procs:
            raise NoSuchProcess(f"pid {pid} already in use", errno="EEXIST")
        self._next_pid = max(self._next_pid, pid + 1)
        return pid

    def insert(self, proc: Process) -> Process:
        if proc.pid in self._procs:
            raise NoSuchProcess(f"pid {proc.pid} already in table", errno="EEXIST")
        self._procs[proc.pid] = proc
        return proc

    def remove(self, proc: Process) -> None:
        self._procs.pop(proc.pid, None)

    def get(self, pid: int) -> Optional[Process]:
        return self._procs.get(pid)

    def lookup(self, pid: int) -> Process:
        proc = self._procs.get(pid)
        if proc is None:
            raise NoSuchProcess(f"no process with pid {pid}")
        return proc

    def all_processes(self) -> list[Process]:
        return sorted(self._procs.values(), key=lambda p: p.pid)
