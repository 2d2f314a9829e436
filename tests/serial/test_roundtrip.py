"""Serializer round-trip tests: the object graph survives intact."""

import pytest

from repro.objstore.record import decode, encode
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Kernel
from repro.posix.process import ThreadState
from repro.posix.signals import SIGUSR1
from repro.posix.socket import SocketFile
from repro.posix.syscalls import Syscalls
from repro.serial.procsnap import restore_group, serialize_group
from repro.serial.registry import registered_types
from repro.units import KIB, MIB


@pytest.fixture
def kernel():
    return Kernel()


def roundtrip(kernel, procs, target=None, **kwargs):
    """Serialize through the codec (as the store would) and restore."""
    meta, ctx = serialize_group(procs, kernel)
    blob = encode(meta)
    target = target or Kernel(hostname="restore-host")
    restored, rctx = restore_group(decode(blob), target, **kwargs)
    return restored, rctx, target, ctx


class TestProcessState:
    def test_identity_fields(self, kernel):
        proc = kernel.spawn("daemon")
        proc.cwd = "/var/db"
        proc.umask = 0o077
        proc.argv = ["daemon", "-f"]
        proc.env = {"HOME": "/root"}
        restored, *_ = roundtrip(kernel, [proc])
        got = restored[0]
        assert (got.pid, got.name) == (proc.pid, "daemon")
        assert got.cwd == "/var/db"
        assert got.umask == 0o077
        assert got.argv == ["daemon", "-f"]
        assert got.env == {"HOME": "/root"}

    def test_cpu_registers(self, kernel):
        proc = kernel.spawn("app")
        proc.main_thread.cpu.rip = 0x401234
        proc.main_thread.cpu.gp["rsp"] = 0x7FFF0000
        proc.main_thread.cpu.fpu = b"\xaa" * 64
        restored, *_ = roundtrip(kernel, [proc])
        cpu = restored[0].main_thread.cpu
        assert cpu.rip == 0x401234
        assert cpu.gp["rsp"] == 0x7FFF0000
        assert cpu.fpu == b"\xaa" * 64

    def test_multiple_threads(self, kernel):
        proc = kernel.spawn("app")
        extra = proc.spawn_thread()
        extra.state = ThreadState.SLEEPING
        extra.wait_channel = "select"
        restored, *_ = roundtrip(kernel, [proc])
        assert len(restored[0].threads) == 2
        assert restored[0].threads[1].state is ThreadState.SLEEPING
        assert restored[0].threads[1].wait_channel == "select"

    def test_pending_signals(self, kernel):
        proc = kernel.spawn("app")
        proc.signals.send(SIGUSR1)
        proc.signals.block(12)
        proc.signals.set_handler(SIGUSR1, "handler_fn")
        restored, *_ = roundtrip(kernel, [proc])
        signals = restored[0].signals
        assert SIGUSR1 in signals.pending
        assert 12 in signals.blocked
        assert signals.disposition(SIGUSR1) == "handler_fn"

    def test_process_tree_links(self, kernel):
        parent = kernel.spawn("parent")
        child = kernel.fork(parent)
        grandchild = kernel.fork(child)
        restored, *_ = roundtrip(kernel, list(parent.walk_tree()))
        by_name = {p.pid: p for p in restored}
        assert by_name[child.pid].parent is by_name[parent.pid]
        assert by_name[grandchild.pid].parent is by_name[child.pid]

    def test_pid_preservation_and_fallback(self, kernel):
        proc = kernel.spawn("app")
        restored, _, target, _ = roundtrip(kernel, [proc])
        assert restored[0].pid == proc.pid
        # Restoring again into the same kernel: pid taken -> fresh pid.
        meta, _ = serialize_group([proc], kernel)
        again, _ = restore_group(meta, target, preserve_pids=True)
        assert again[0].pid != proc.pid


class TestDescriptors:
    def test_dup_shares_description_after_restore(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        fd = sys.open("/file", O_RDWR | O_CREAT)
        sys.write(fd, b"0123456789")
        dup_fd = sys.dup(fd)
        restored, *_ = roundtrip(kernel, [proc])
        table = restored[0].fdtable
        assert table.lookup(fd) is table.lookup(dup_fd)
        assert table.lookup(fd).offset == 10

    def test_fork_shared_description_across_processes(self, kernel):
        parent = kernel.spawn("app")
        sys = Syscalls(kernel, parent)
        fd = sys.open("/shared", O_RDWR | O_CREAT)
        sys.write(fd, b"abcdef")
        child = sys.fork()
        restored, *_ = roundtrip(kernel, list(parent.walk_tree()))
        p, c = restored
        assert p.fdtable.lookup(fd) is c.fdtable.lookup(fd)

    def test_file_content_and_offset(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        fd = sys.open("/data", O_RDWR | O_CREAT)
        sys.write(fd, b"persistent content")
        sys.lseek(fd, 11)
        restored, _, target, _ = roundtrip(kernel, [proc])
        rsys = Syscalls(target, restored[0])
        assert rsys.read(fd, 7) == b"content"

    def test_anonymous_file_restored(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        fd = sys.open("/tmpfile", O_RDWR | O_CREAT)
        sys.write(fd, b"anon data")
        sys.unlink("/tmpfile")
        restored, _, target, _ = roundtrip(kernel, [proc])
        rsys = Syscalls(target, restored[0])
        rsys.lseek(fd, 0)
        assert rsys.read(fd, 9) == b"anon data"
        assert restored[0].fdtable.lookup(fd).vnode.nlink == 0

    def test_pipe_inflight_data(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        r, w = sys.pipe()
        sys.write(w, b"unread")
        restored, _, target, _ = roundtrip(kernel, [proc])
        assert Syscalls(target, restored[0]).read(r, 6) == b"unread"

    def test_socketpair_relinked(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        a, b = sys.socketpair()
        sys.write(a, b"buffered")
        restored, _, target, _ = roundtrip(kernel, [proc])
        rsys = Syscalls(target, restored[0])
        assert rsys.read(b, 8) == b"buffered"
        # Peering restored: new writes still flow.
        rsys.write(b, b"reply")
        assert rsys.read(a, 5) == b"reply"

    def test_socket_peer_outside_group_degrades(self, kernel):
        server = kernel.spawn("server")
        client = kernel.spawn("client")  # sibling, NOT in the group
        ssys, csys = Syscalls(kernel, server), Syscalls(kernel, client)
        lfd = ssys.bind_listen("svc")
        cfd = csys.connect("svc")
        sfd = ssys.accept(lfd)
        csys.write(cfd, b"from-client")
        restored, _, target, _ = roundtrip(kernel, [server])
        rsys = Syscalls(target, restored[0])
        # Buffered data survives; the dangling peer reads as EOF-ish.
        assert rsys.read(sfd, 11) == b"from-client"


class TestIpcObjects:
    def test_shared_memory_attachments(self, kernel):
        a = kernel.spawn("a")
        sys_a = Syscalls(kernel, a)
        seg = sys_a.shmget(99, 64 * KIB)
        addr = sys_a.shmat(seg)
        b = sys_a.fork()
        restored, _, target, _ = roundtrip(kernel, [a, b])
        ra, rb = restored
        rsys_a, rsys_b = Syscalls(target, ra), Syscalls(target, rb)
        # Sharing is preserved: a write lands in the same restored object.
        seg_a = ra.shm_attachments[addr]
        seg_b = rb.shm_attachments[addr]
        assert seg_a is seg_b

    def test_restored_attachments_are_counted(self, kernel):
        proc = kernel.spawn("a")
        sysc = Syscalls(kernel, proc)
        seg = sysc.shmget(99, 64 * KIB)
        addr = sysc.shmat(seg)
        child = sysc.fork()
        restored, _, target, _ = roundtrip(kernel, [proc, child])
        segment = restored[0].shm_attachments[addr]
        assert segment.attach_count == 2
        for rproc in restored:
            Syscalls(target, rproc).shmdt(addr)
        assert segment.attach_count == 0

    def test_message_queue_contents(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        sys.msgsnd(5, 2, b"queued-msg")
        restored, _, target, _ = roundtrip(kernel, [proc])
        rsys = Syscalls(target, restored[0])
        message = rsys.msgrcv(5)
        assert message.body == b"queued-msg"
        assert message.mtype == 2


class TestVmStructure:
    def test_entries_restored_exactly(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        from repro.mem.address_space import PROT_READ

        sys.mmap(1 * MIB, name="heap")
        sys.mmap(64 * KIB, prot=PROT_READ, name="ro")
        restored, *_ = roundtrip(kernel, [proc])
        entries = restored[0].aspace.entries
        originals = proc.aspace.entries
        assert [(e.start, e.end, e.prot, e.shared, e.name) for e in entries] == [
            (e.start, e.end, e.prot, e.shared, e.name) for e in originals
        ]

    def test_shadow_chain_depth_preserved(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(64 * KIB, name="heap")
        sys.poke(entry.start, b"gen0")
        child = sys.fork()
        grandchild = Syscalls(kernel, child).fork()
        restored, rctx, *_ = roundtrip(kernel, list(proc.walk_tree()))

        def depth(obj):
            count = 0
            while obj is not None:
                count += 1
                obj = obj.shadow
            return count

        orig = grandchild.aspace.entries[0].obj
        new = restored[2].aspace.entries[0].obj
        assert depth(new) == depth(orig)

    def test_mctl_flags_roundtrip(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(64 * KIB, name="cache")
        entry.sls_exclude = True
        entry.restore_hint = "lazy"
        restored, *_ = roundtrip(kernel, [proc])
        got = restored[0].aspace.entries[0]
        assert got.sls_exclude is True
        assert got.restore_hint == "lazy"


class TestRegistry:
    def test_expected_serializers_registered(self):
        types = registered_types()
        assert "vnodefile" in types
        assert "pipeend" in types
        assert "socketfile" in types

    def test_object_counts_plausible(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        sys.mmap(64 * KIB)
        sys.pipe()
        _, _, _, ctx = roundtrip(kernel, [proc])
        # proc + thread + 2 pipe ends + pipe + entry + vmobject ...
        assert ctx.objects_serialized >= 6


# --- every key a serializer writes is read back -----------------------------


class _Recording(dict):
    """A decoded metadata dict that notes each key a restorer reads (by
    lookup, membership, or taking the whole dict)."""

    def __init__(self, value: dict, path: str, reads: set):
        super().__init__(value)
        self._path, self._reads = path, reads

    def _read_all(self):
        self._reads.update((self._path, key) for key in dict.keys(self))

    def __getitem__(self, key):
        self._reads.add((self._path, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._reads.add((self._path, key))
        return super().get(key, default)

    def __contains__(self, key):
        self._reads.add((self._path, key))
        return super().__contains__(key)

    def __iter__(self):
        self._read_all()
        return super().__iter__()

    def keys(self):
        self._read_all()
        return super().keys()

    def items(self):
        self._read_all()
        return super().items()

    def values(self):
        self._read_all()
        return super().values()


def _recording(value, path: str, reads: set):
    if isinstance(value, dict):
        return _Recording({key: _recording(item, f"{path}.{key}", reads)
                           for key, item in value.items()}, path, reads)
    if isinstance(value, list):
        return [_recording(item, path + "[]", reads) for item in value]
    return value


def _written(value, path: str, out: set) -> set:
    if isinstance(value, dict):
        for key, item in value.items():
            out.add((path, key))
            _written(item, f"{path}.{key}", out)
    elif isinstance(value, list):
        for item in value:
            _written(item, path + "[]", out)
    return out


#: the one place a key no restorer reads may live: (where in the group's
#: metadata, key) -> why it is written anyway.  Anything else a
#: serializer writes must be read back, or it is bytes every checkpoint
#: pays for and nothing uses.
DIAGNOSTIC_ONLY = {
    ("", "hostname"): "the capturing machine; a restore runs on its target's",
    (".procs[].threads[]", "tid"): "the captured thread id; a restore numbers threads afresh",
    (".procs[].fds[].file.pipe", "koid"): "names the pipe in its own state; restore keys it by pipe_koid",
    (".procs[].fds[].file.sock", "koid"): "names the socket in its own state; restore keys it by sock_koid",
    (".vnodes[]", "vtype"): "the captured type; a restore reopens every vnode as a file at its path",
    (".vnodes[]", "fs"): "the captured filesystem; a restore uses the target's VFS at the path",
    (".vnodes[]", "open_refs"): "rebuilt as the restored descriptions re-attach",
}


def test_every_key_a_serializer_writes_is_read_on_restore(kernel):
    """Restore a graph touching every serializer through a key-recording
    mapping: a key that is written but never read is a write-only field
    (as VM objects' ``resident``/``swap_slots`` were) unless listed in
    :data:`DIAGNOSTIC_ONLY` — and every listed key is still written."""
    proc = kernel.spawn("app")
    proc.env = {"HOME": "/root"}
    proc.signals.send(SIGUSR1)
    proc.signals.set_handler(SIGUSR1, "handler_fn")
    proc.spawn_thread().state = ThreadState.SLEEPING
    sysc = Syscalls(kernel, proc)
    fd = sysc.open("/data", O_RDWR | O_CREAT)
    sysc.write(fd, b"content")
    sysc.dup(fd)
    _read_end, write_end = sysc.pipe()
    sysc.write(write_end, b"in flight")
    left, _right = sysc.socketpair()
    sysc.write(left, b"buffered")
    sysc.shmat(sysc.shmget(99, 64 * KIB))
    sysc.msgsnd(5, 2, b"queued")
    heap = sysc.mmap(64 * KIB, name="heap")
    sysc.poke(heap.start, b"gen0")
    sysc.fork()
    meta, _ctx = serialize_group(list(proc.walk_tree()), kernel)
    meta = decode(encode(meta))
    reads: set = set()
    restore_group(_recording(meta, "", reads), Kernel(hostname="restore-host"))
    written = _written(meta, "", set())
    assert written - reads == set(DIAGNOSTIC_ONLY)
