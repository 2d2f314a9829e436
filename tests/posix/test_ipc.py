"""Unit tests for pipes, sockets, shared memory, and message queues."""

import pytest

from repro.errors import (
    BrokenPipe,
    ConnectionRefused,
    NoSuchFile,
    PosixError,
    WouldBlock,
)
from repro.posix.kernel import Kernel
from repro.posix.msgqueue import MessageQueue, MessageQueueRegistry
from repro.posix.objects import ObjectRegistry
from repro.posix.pipe import make_pipe
from repro.posix.shm import SharedMemoryRegistry
from repro.posix.socket import (
    ExtConsHold,
    UnixSocketNamespace,
    socketpair,
)
from repro.units import GIB, KIB


class TestPipes:
    def test_write_read(self):
        r, w = make_pipe(ObjectRegistry())
        w.write(b"data")
        assert r.read(4) == b"data"

    def test_partial_read(self):
        r, w = make_pipe(ObjectRegistry())
        w.write(b"abcdef")
        assert r.read(3) == b"abc"
        assert r.read(3) == b"def"

    def test_empty_read_blocks(self):
        r, _w = make_pipe(ObjectRegistry())
        with pytest.raises(WouldBlock):
            r.read(1)

    def test_eof_after_writer_close(self):
        r, w = make_pipe(ObjectRegistry())
        w.write(b"tail")
        w.refcount = 1
        w.decref()
        assert r.read(4) == b"tail"
        assert r.read(4) == b""  # EOF

    def test_epipe_after_reader_close(self):
        r, w = make_pipe(ObjectRegistry())
        r.refcount = 1
        r.decref()
        with pytest.raises(BrokenPipe):
            w.write(b"x")

    def test_capacity_backpressure(self):
        r, w = make_pipe(ObjectRegistry())
        accepted = w.write(b"x" * (w.pipe.capacity + 100))
        assert accepted == w.pipe.capacity
        with pytest.raises(WouldBlock):
            w.write(b"more")
        r.read(100)
        assert w.write(b"more") == 4

    def test_wrong_direction(self):
        r, w = make_pipe(ObjectRegistry())
        with pytest.raises(BrokenPipe):
            w.read(1)
        with pytest.raises(BrokenPipe):
            r.write(b"x")


class TestSockets:
    def test_socketpair_duplex(self):
        a, b = socketpair(ObjectRegistry())
        a.send(b"ping")
        assert b.recv(4) == b"ping"
        b.send(b"pong")
        assert a.recv(4) == b"pong"

    def test_recv_empty_blocks(self):
        a, b = socketpair(ObjectRegistry())
        with pytest.raises(WouldBlock):
            a.recv(1)

    def test_eof_after_peer_close(self):
        a, b = socketpair(ObjectRegistry())
        a.send(b"last")
        a.close()
        assert b.recv(4) == b"last"
        assert b.recv(4) == b""

    def test_listen_connect_accept(self):
        ns = UnixSocketNamespace(ObjectRegistry())
        listener = ns.bind_listen("srv")
        client = ns.connect("srv")
        server_side = ns.accept(listener)
        client.send(b"hello")
        assert server_side.recv(5) == b"hello"

    def test_connect_refused(self):
        ns = UnixSocketNamespace(ObjectRegistry())
        with pytest.raises(ConnectionRefused):
            ns.connect("nobody")

    def test_address_in_use(self):
        ns = UnixSocketNamespace(ObjectRegistry())
        ns.bind_listen("srv")
        with pytest.raises(PosixError):
            ns.bind_listen("srv")

    def test_connect_to_closed_listener_refused(self):
        ns = UnixSocketNamespace(ObjectRegistry())
        ns.bind_listen("srv").close()
        with pytest.raises(ConnectionRefused):
            ns.connect("srv")

    def test_closed_listener_frees_its_name(self):
        ns = UnixSocketNamespace(ObjectRegistry())
        ns.bind_listen("srv").close()
        listener = ns.bind_listen("srv")
        ns.connect("srv")
        assert len(listener.accept_queue) == 1

    def test_accept_empty_queue(self):
        ns = UnixSocketNamespace(ObjectRegistry())
        listener = ns.bind_listen("srv")
        with pytest.raises(WouldBlock):
            ns.accept(listener)


class TestExtConsHold:
    def test_hold_blocks_delivery_until_release(self):
        a, b = socketpair(ObjectRegistry())
        delivered = []
        a.extcons_hold = ExtConsHold(release=delivered.append)
        a.send(b"held")
        assert b.pending_bytes() == 0
        a.extcons_hold.release_all()
        assert delivered == [b"held"]

    def test_mark_cuts_the_stream(self):
        a, b = socketpair(ObjectRegistry())
        hold = ExtConsHold(release=b.recv_buffer.extend)
        a.extcons_hold = hold
        a.send(b"before")
        cut = hold.mark()
        a.send(b"after")
        hold.release_until(cut)
        assert b.recv(16) == b"before"
        assert hold.held_bytes == 5

    def test_discard_on_rollback(self):
        a, b = socketpair(ObjectRegistry())
        hold = ExtConsHold(release=b.recv_buffer.extend)
        a.extcons_hold = hold
        a.send(b"doomed")
        assert hold.discard_all() == 6
        with pytest.raises(WouldBlock):
            b.recv(1)


class TestSharedMemory:
    @pytest.fixture
    def registry(self):
        from repro.mem.phys import PhysicalMemory

        return SharedMemoryRegistry(PhysicalMemory(total_bytes=1 * GIB),
                                    ObjectRegistry())

    def test_shmget_same_key_same_segment(self, registry):
        a = registry.shmget(42, 64 * KIB)
        b = registry.shmget(42, 64 * KIB)
        assert a is b

    def test_ipc_private_always_new(self, registry):
        a = registry.shmget(registry.IPC_PRIVATE, 64 * KIB)
        b = registry.shmget(registry.IPC_PRIVATE, 64 * KIB)
        assert a is not b

    def test_size_page_aligned(self, registry):
        seg = registry.shmget(1, 100)
        assert seg.size == 4096

    def test_rmid_deferred_until_detach(self, registry):
        seg = registry.shmget(7, 64 * KIB)
        registry.note_attach(seg)
        registry.shmrm(7)
        assert registry.get(7) is None or seg.marked_removed
        registry.note_detach(seg)
        assert registry.get(7) is None

    def test_posix_shm_named(self, registry):
        seg = registry.shm_open("/cache", 64 * KIB)
        assert registry.shm_open("/cache", 64 * KIB) is seg
        registry.shm_unlink("/cache")
        with pytest.raises(NoSuchFile):
            registry.shm_unlink("/cache")

    def test_invalid_size(self, registry):
        with pytest.raises(PosixError):
            registry.shmget(registry.IPC_PRIVATE, 0)


class TestMessageQueues:
    def test_send_receive_fifo(self):
        queue = MessageQueue(ObjectRegistry(), key=1)
        queue.send(1, b"first")
        queue.send(2, b"second")
        assert queue.receive().body == b"first"
        assert queue.receive().body == b"second"

    def test_receive_by_type(self):
        queue = MessageQueue(ObjectRegistry(), key=1)
        queue.send(1, b"one")
        queue.send(2, b"two")
        assert queue.receive(mtype=2).body == b"two"
        assert queue.receive().body == b"one"

    def test_empty_blocks(self):
        queue = MessageQueue(ObjectRegistry(), key=1)
        with pytest.raises(WouldBlock):
            queue.receive()

    def test_missing_type_blocks(self):
        queue = MessageQueue(ObjectRegistry(), key=1)
        queue.send(1, b"x")
        with pytest.raises(WouldBlock):
            queue.receive(mtype=9)

    def test_capacity(self):
        queue = MessageQueue(ObjectRegistry(), key=1, capacity=10)
        queue.send(1, b"x" * 10)
        with pytest.raises(WouldBlock):
            queue.send(1, b"y")

    def test_invalid_type(self):
        queue = MessageQueue(ObjectRegistry(), key=1)
        with pytest.raises(PosixError):
            queue.send(0, b"x")

    def test_registry(self):
        registry = MessageQueueRegistry(ObjectRegistry())
        q = registry.msgget(5)
        assert registry.msgget(5) is q
        registry.msgrm(5)
        with pytest.raises(NoSuchFile):
            registry.msgrm(5)


class TestSyscallSurface:
    def test_shmat_shmdt_via_syscalls(self):
        from repro.posix.syscalls import Syscalls

        kernel = Kernel()
        a = kernel.spawn("a")
        b = kernel.spawn("b")
        sys_a, sys_b = Syscalls(kernel, a), Syscalls(kernel, b)
        seg = sys_a.shmget(0xBEEF, 64 * KIB)
        addr_a = sys_a.shmat(seg)
        addr_b = sys_b.shmat(sys_b.shmget(0xBEEF, 64 * KIB))
        sys_a.poke(addr_a, b"cross-process")
        assert sys_b.peek(addr_b, 13) == b"cross-process"
        assert seg.attach_count == 2
        sys_a.shmdt(addr_a)
        assert seg.attach_count == 1

    def test_syscalls_charge_time(self):
        kernel = Kernel()
        proc = kernel.spawn("app")
        from repro.posix.syscalls import Syscalls

        sys = Syscalls(kernel, proc)
        before = kernel.clock.now
        sys.getpid()
        assert kernel.clock.now > before
