"""Unit tests for processes, threads, and the process table."""

import pytest

from repro.errors import NoSuchProcess, PosixError
from repro.posix.kernel import Kernel
from repro.posix.process import ProcessState, ThreadState
from repro.posix.signals import SIGKILL, SIGSTOP, SIGUSR1


@pytest.fixture
def kernel():
    return Kernel()


class TestLifecycle:
    def test_spawn_assigns_pid_and_parent(self, kernel):
        proc = kernel.spawn("worker")
        assert proc.pid > kernel.init.pid
        assert proc.parent is kernel.init
        assert proc in kernel.init.children

    def test_fork_duplicates_cpu_state(self, kernel):
        parent = kernel.spawn("app")
        parent.main_thread.cpu.rip = 0xCAFE
        parent.main_thread.cpu.gp["rax"] = 42
        child = kernel.fork(parent)
        assert child.main_thread.cpu.rip == 0xCAFE
        assert child.main_thread.cpu.gp["rax"] == 42
        child.main_thread.cpu.gp["rax"] = 7
        assert parent.main_thread.cpu.gp["rax"] == 42

    def test_fork_does_not_inherit_pending_signals(self, kernel):
        parent = kernel.spawn("app")
        parent.signals.send(SIGUSR1)
        child = kernel.fork(parent)
        assert child.signals.pending == []

    def test_exit_and_reap(self, kernel):
        proc = kernel.spawn("app")
        kernel.exit(proc, status=3)
        assert proc.state is ProcessState.ZOMBIE
        assert kernel.reap(proc) == 3
        assert kernel.procs.get(proc.pid) is None

    def test_exit_reparents_children_to_init(self, kernel):
        parent = kernel.spawn("app")
        child = kernel.fork(parent)
        kernel.exit(parent)
        assert child.parent is kernel.init

    def test_reap_non_zombie_rejected(self, kernel):
        proc = kernel.spawn("app")
        with pytest.raises(NoSuchProcess):
            kernel.reap(proc)

    def test_init_cannot_exit(self, kernel):
        with pytest.raises(PosixError):
            kernel.exit(kernel.init)

    def test_walk_tree_depth_first(self, kernel):
        root = kernel.spawn("root")
        c1 = kernel.fork(root)
        c2 = kernel.fork(root)
        gc1 = kernel.fork(c1)
        pids = [p.pid for p in root.walk_tree()]
        assert pids == [root.pid, c1.pid, gc1.pid, c2.pid]


class TestThreads:
    def test_stop_resume_all(self, kernel):
        proc = kernel.spawn("app")
        kernel.spawn_thread(proc)
        stopped = proc.stop_all_threads()
        assert stopped == 2
        assert all(t.state is ThreadState.STOPPED for t in proc.threads)
        assert proc.state is ProcessState.STOPPED
        proc.resume_all_threads()
        assert all(t.state is ThreadState.RUNNING for t in proc.threads)
        assert proc.state is ProcessState.ALIVE

    def test_unique_tids(self, kernel):
        proc = kernel.spawn("app")
        t2 = kernel.spawn_thread(proc)
        assert t2.tid != proc.main_thread.tid


class TestSignals:
    def test_send_and_take(self, kernel):
        proc = kernel.spawn("app")
        kernel.kill(proc.pid, SIGUSR1)
        assert proc.signals.take() == SIGUSR1
        assert proc.signals.take() is None

    def test_blocked_signal_not_deliverable(self, kernel):
        proc = kernel.spawn("app")
        proc.signals.block(SIGUSR1)
        proc.signals.send(SIGUSR1)
        assert proc.signals.deliverable() == []
        proc.signals.unblock(SIGUSR1)
        assert proc.signals.deliverable() == [SIGUSR1]

    def test_kill_and_stop_uncatchable(self, kernel):
        proc = kernel.spawn("app")
        with pytest.raises(ValueError):
            proc.signals.set_handler(SIGKILL, "ignore")
        with pytest.raises(ValueError):
            proc.signals.block(SIGSTOP)

    def test_duplicate_pending_collapsed(self, kernel):
        proc = kernel.spawn("app")
        proc.signals.send(SIGUSR1)
        proc.signals.send(SIGUSR1)
        assert proc.signals.pending == [SIGUSR1]

    def test_kill_unknown_pid(self, kernel):
        with pytest.raises(NoSuchProcess):
            kernel.kill(9999, SIGUSR1)


class TestContainers:
    def test_container_membership(self, kernel):
        box = kernel.create_container("jail0")
        proc = kernel.spawn("inmate", container=box)
        assert proc.pid in box.member_pids
        assert kernel.container_processes(box) == [proc]

    def test_fork_stays_in_container(self, kernel):
        box = kernel.create_container("jail0")
        parent = kernel.spawn("inmate", container=box)
        child = kernel.fork(parent)
        assert child.pid in box.member_pids

    def test_exit_leaves_container(self, kernel):
        box = kernel.create_container("jail0")
        proc = kernel.spawn("inmate", container=box)
        kernel.exit(proc)
        assert proc.pid not in box.member_pids


    def test_each_kernel_numbers_its_own_containers(self, kernel):
        first = kernel.create_container("jail0")
        assert kernel.create_container("jail1").cid == first.cid + 1
        assert Kernel().create_container("jail0").cid == first.cid


class TestProcessTable:
    def test_force_pid_for_restore(self, kernel):
        pid = kernel.procs.force_pid(500)
        assert pid == 500
        # Next allocation skips past it.
        assert kernel.procs.allocate_pid() == 501

    def test_force_existing_pid_rejected(self, kernel):
        proc = kernel.spawn("app")
        with pytest.raises(NoSuchProcess):
            kernel.procs.force_pid(proc.pid)
