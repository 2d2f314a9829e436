"""Serializer edge cases: listeners, missing directories, deep trees."""

import pytest

from repro.objstore.record import decode, encode
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.serial.procsnap import restore_group, serialize_group
from repro.units import KIB


@pytest.fixture
def kernel():
    return Kernel()


def roundtrip(kernel, procs, target=None, **kwargs):
    meta, ctx = serialize_group(procs, kernel)
    target = target or Kernel(hostname="restore-host")
    restored, rctx = restore_group(decode(encode(meta)), target,
                                   captured_here=target is kernel, **kwargs)
    return restored, rctx, target


class TestListenerRestore:
    def test_listening_socket_rebinds(self, kernel):
        server = kernel.spawn("server")
        sys = Syscalls(kernel, server)
        sys.bind_listen("service.sock")
        restored, _, target = roundtrip(kernel, [server])
        # The restored listener accepts new connections on the target.
        client = target.spawn("client")
        csys = Syscalls(target, client)
        cfd = csys.connect("service.sock")
        rsys = Syscalls(target, restored[0])
        sfd = rsys.accept(0)  # fd 0 = the listener
        csys.write(cfd, b"fresh-connection")
        assert rsys.read(sfd, 16) == b"fresh-connection"

    def test_pending_accept_queue_not_lost_silently(self, kernel):
        """Connections pending in the accept queue at checkpoint time
        come from peers outside the group; after restore the listener
        is empty but functional (the paper's boundary semantics)."""
        server = kernel.spawn("server")
        outsider = kernel.spawn("outsider")
        ssys = Syscalls(kernel, server)
        osys = Syscalls(kernel, outsider)
        ssys.bind_listen("svc")
        osys.connect("svc")  # queued, never accepted
        restored, _, target = roundtrip(kernel, [server])
        from repro.errors import WouldBlock

        with pytest.raises(WouldBlock):
            Syscalls(target, restored[0]).accept(0)


class TestFileEdgeCases:
    def test_file_in_missing_directory_falls_back_anonymous(self, kernel):
        sys = Syscalls(kernel, kernel.spawn("app"))
        sys.mkdir("/data")
        fd = sys.open("/data/file", O_RDWR | O_CREAT)
        sys.write(fd, b"payload")
        # Restore into a kernel that has no /data directory: the file
        # comes back anonymous rather than failing the whole restore.
        restored, _, target = roundtrip(kernel, [kernel.procs.lookup(2)])
        rsys = Syscalls(target, restored[0])
        rsys.lseek(fd, 0)
        assert rsys.read(fd, 7) == b"payload"

    def test_deep_process_tree(self, kernel):
        root = kernel.spawn("gen0")
        current = root
        for _ in range(6):
            current = kernel.fork(current)
        restored, _, target = roundtrip(kernel, list(root.walk_tree()))
        assert len(restored) == 7
        depth = 0
        proc = restored[-1]
        while proc.parent is not None and proc.parent in restored:
            depth += 1
            proc = proc.parent
        assert depth == 6

    def test_empty_group_roundtrip(self, kernel):
        loner = kernel.spawn("loner")  # no fds, no mappings
        restored, _, target = roundtrip(kernel, [loner])
        assert restored[0].name == "loner"
        assert len(restored[0].aspace.entries) == 0

    def test_offsets_preserved_across_dup_chains(self, kernel):
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        fd = sys.open("/f", O_RDWR | O_CREAT)
        sys.write(fd, b"0123456789")
        d1 = sys.dup(fd)
        d2 = sys.dup(d1)
        sys.lseek(d2, 4)
        restored, _, target = roundtrip(kernel, [proc])
        rsys = Syscalls(target, restored[0])
        # All three descriptors share one offset of 4.
        assert rsys.read(fd, 2) == b"45"
        assert rsys.read(d1, 2) == b"67"
        assert rsys.read(d2, 2) == b"89"


class TestChargedCosts:
    def test_serialization_counts_scale_with_state(self, kernel):
        small = kernel.spawn("small")
        _, small_ctx = serialize_group([small], kernel)
        big = kernel.spawn("big")
        sys = Syscalls(kernel, big)
        for i in range(10):
            sys.open(f"/file-{i}", O_RDWR | O_CREAT)
        sys.mmap(64 * KIB)
        _, big_ctx = serialize_group([big], kernel)
        assert big_ctx.objects_serialized > small_ctx.objects_serialized + 10
