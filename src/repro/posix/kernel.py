"""The simulated kernel: one machine.

``Kernel`` wires the substrates together — virtual clock, physical
memory, the VM subsystem with Aurora's COW engine, the VFS, the POSIX
object registries, and the process table — and offers the lifecycle
operations (fork/exit/containers) the SLS orchestrator builds on.

One :class:`Kernel` == one host.  Migration experiments create two and
connect them with a :class:`~repro.hw.netdev.NetworkLink`.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import NoSuchProcess, PosixError
from repro.fault import FailpointRegistry
from repro.hw.device import StorageDevice
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import DEFAULT_CPU, CpuCostModel
from repro.mem.address_space import AddressSpace, MemContext
from repro.mem.cow import AuroraCow
from repro.mem.phys import PhysicalMemory
from repro.mem.swap import PageoutDaemon, SwapSpace
from repro.obs import KernelObs
from repro.posix.fd import FdTable
from repro.posix.msgqueue import MessageQueueRegistry
from repro.posix.objects import ObjectRegistry
from repro.posix.process import CpuState, Process, ProcessState, ProcessTable, Thread
from repro.posix.shm import SharedMemoryRegistry
from repro.posix.socket import UnixSocketNamespace
from repro.posix.vnode import TmpFS, VfsNamespace
from repro.sim.clock import SimClock
from repro.sim.event import EventQueue
from repro.units import GIB


class Container:
    """An OS container (FreeBSD jail): a persistence-group boundary."""

    def __init__(self, cid: int, name: str):
        self.cid = cid
        self.name = name
        self.member_pids: set[int] = set()

    def __repr__(self) -> str:
        return f"<Container {self.cid} {self.name!r} procs={len(self.member_pids)}>"


class Kernel:
    """One simulated host running the Aurora-capable kernel."""

    def __init__(
        self,
        hostname: str = "aurora0",
        memory_bytes: int = 96 * GIB,
        cpu: CpuCostModel = DEFAULT_CPU,
        clock: Optional[SimClock] = None,
    ):
        self.hostname = hostname
        self.clock = clock or SimClock()
        self.events = EventQueue(self.clock)
        self.phys = PhysicalMemory(total_bytes=memory_bytes)
        self.mem = MemContext(self.clock, self.phys, cpu=cpu)
        #: observability plane: tracer + metric registry (repro.obs)
        self.obs = KernelObs(self.clock, label=hostname)
        #: fault-injection plane: failpoint registry (repro.fault)
        self.faults = FailpointRegistry(clock=self.clock)
        self.cow = AuroraCow(self.mem)
        self.cow.attach_obs(self.obs)
        #: numbers every kernel object and thread (koids, tids)
        self.registry = ObjectRegistry()
        self.procs = ProcessTable()
        self.vfs = VfsNamespace(TmpFS(self.registry))
        self.unix_sockets = UnixSocketNamespace(self.registry)
        self.shm = SharedMemoryRegistry(self.phys, self.registry)
        self.msgqueues = MessageQueueRegistry(self.registry)
        self.containers: dict[int, Container] = {}
        #: this host's container, persistence-group and image ids
        self.cids = itertools.count(1)
        self.gids = itertools.count(1)
        self.image_ids = itertools.count(1)
        self.devices: list[StorageDevice] = []
        #: swap is created on demand against the first NVMe device
        self._swap: Optional[SwapSpace] = None
        self._pageout: Optional[PageoutDaemon] = None
        #: the SLS, installed by repro.core.orchestrator.SLS.attach_kernel
        self.sls = None
        self._init = self._make_init()

    # -- bootstrapping -------------------------------------------------------

    def _make_init(self) -> Process:
        aspace = AddressSpace(self.mem, name="init")
        proc = Process(
            self.registry,
            pid=self.procs.allocate_pid(),
            name="init",
            aspace=aspace,
            fdtable=FdTable(),
        )
        self.procs.insert(proc)
        return proc

    @property
    def init(self) -> Process:
        return self._init

    def add_device(self, device: StorageDevice) -> StorageDevice:
        self.devices.append(device)
        device.attach_faults(self.faults)
        return device

    @property
    def swap(self) -> SwapSpace:
        if self._swap is None:
            swap_dev = next(
                (d for d in self.devices if d.spec.persistent), None
            ) or self.add_device(NvmeDevice(self.clock, name="swap-nvme"))
            self._swap = SwapSpace(self.mem, swap_dev)
        return self._swap

    @property
    def pageout(self) -> PageoutDaemon:
        if self._pageout is None:
            self._pageout = PageoutDaemon(self.mem, self.swap)
        return self._pageout

    # -- process lifecycle -----------------------------------------------------

    def spawn(
        self,
        name: str,
        parent: Optional[Process] = None,
        container: Optional[Container] = None,
    ) -> Process:
        """Create a fresh process (fork+exec collapsed, as for init's
        children); the address space starts empty."""
        self.mem.charge(self.mem.cpu.proc_exec_ns)
        parent = parent or self._init
        aspace = AddressSpace(self.mem, name=name)
        proc = Process(
            self.registry,
            pid=self.procs.allocate_pid(),
            name=name,
            aspace=aspace,
            fdtable=FdTable(),
            parent=parent,
            container_id=container.cid if container else parent.container_id,
        )
        self.procs.insert(proc)
        if container is not None:
            container.member_pids.add(proc.pid)
        elif proc.container_id:
            self.containers[proc.container_id].member_pids.add(proc.pid)
        return proc

    def fork(self, parent: Process) -> Process:
        """``fork(2)``: duplicate address space (COW) and descriptors."""
        self.mem.charge(self.mem.cpu.proc_fork_ns)
        child_aspace = parent.aspace.fork(name=f"{parent.name}-{self.procs._next_pid}")
        child = Process(
            self.registry,
            pid=self.procs.allocate_pid(),
            name=parent.name,
            aspace=child_aspace,
            fdtable=parent.fdtable.fork_copy(),
            parent=parent,
            container_id=parent.container_id,
        )
        child.cwd = parent.cwd
        child.umask = parent.umask
        child.pgid = parent.pgid
        child.sid = parent.sid
        child.signals = parent.signals.copy()
        child.signals.pending.clear()  # pending signals are not inherited
        child.main_thread.cpu = parent.main_thread.cpu.copy()
        # SysV shm attachments are inherited across fork.
        for addr, segment in parent.shm_attachments.items():
            child.shm_attachments[addr] = segment
            self.shm.note_attach(segment)  # type: ignore[arg-type]
        self.procs.insert(child)
        if child.container_id:
            self.containers[child.container_id].member_pids.add(child.pid)
        return child

    def spawn_thread(self, proc: Process, cpu: Optional[CpuState] = None) -> Thread:
        """Start another thread in ``proc``."""
        thread = Thread(self.registry, proc, cpu)
        proc.threads.append(thread)
        return thread

    def exit(self, proc: Process, status: int = 0) -> None:
        """Terminate ``proc``: close FDs, free memory, reparent children."""
        if proc is self._init:
            raise PosixError("init does not exit", errno="EPERM")
        proc.fdtable.close_all()
        for segment in proc.shm_attachments.values():
            self.shm.note_detach(segment)  # type: ignore[arg-type]
        proc.shm_attachments.clear()
        proc.aspace.destroy()
        for child in list(proc.children):
            child.parent = self._init
            self._init.children.append(child)
        proc.children.clear()
        proc.state = ProcessState.ZOMBIE
        proc.exit_status = status
        if proc.container_id in self.containers:
            self.containers[proc.container_id].member_pids.discard(proc.pid)

    def reap(self, proc: Process) -> int:
        """``waitpid``: collect a zombie; returns its exit status."""
        if proc.state != ProcessState.ZOMBIE:
            raise NoSuchProcess(f"pid {proc.pid} is not a zombie", errno="ECHILD")
        if proc.parent is not None:
            try:
                proc.parent.children.remove(proc)
            except ValueError:
                pass
        proc.state = ProcessState.DEAD
        self.procs.remove(proc)
        assert proc.exit_status is not None
        return proc.exit_status

    def kill(self, pid: int, signo: int) -> None:
        self.procs.lookup(pid).signals.send(signo)

    # -- containers ---------------------------------------------------------------

    def create_container(self, name: str) -> Container:
        container = Container(next(self.cids), name)
        self.containers[container.cid] = container
        return container

    def container_processes(self, container: Container) -> list[Process]:
        return [self.procs.lookup(pid) for pid in sorted(container.member_pids)]

    # -- time ------------------------------------------------------------------------

    def run_for(self, ns: int) -> None:
        """Advance virtual time, dispatching due background events."""
        self.events.run_until(self.clock.now + ns)

    def __repr__(self) -> str:
        return f"<Kernel {self.hostname} procs={len(self.procs)} t={self.clock.now}ns>"
