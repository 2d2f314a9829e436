"""An in-place restore rejoins only live objects.

A restore into the capturing kernel (a rollback, or a clone restored
beside its original) may reconnect a socket to a peer outside the
image.  The peer must still be held by a live descriptor and must have
lost its own peer; otherwise the socket restores disconnected, as it
does in another kernel.  A listener's name follows the same rule: it
belongs to whichever listener is open.
"""

import gc
import weakref
from types import SimpleNamespace

import pytest

from repro.core.backends import MemoryBackend
from repro.core.orchestrator import SLS
from repro.core.rollback import rollback
from repro.errors import NotConnected
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, KIB

REQUEST = b"request"


@pytest.fixture
def world():
    """A persisted server and a client outside its group, whose request
    waits unread on the server's socket when the image is taken."""
    kernel = Kernel(memory_bytes=4 * GIB)
    sls = SLS(kernel)
    server, client = kernel.spawn("server"), kernel.spawn("client")
    ssys, csys = Syscalls(kernel, server), Syscalls(kernel, client)
    ssys.mmap(64 * KIB, name="heap")
    lfd = ssys.bind_listen("svc")
    cfd = csys.connect("svc")
    sfd = ssys.accept(lfd)
    csys.write(cfd, REQUEST)
    group = sls.persist(server, name="server")
    group.attach(MemoryBackend("memory"))
    image = sls.checkpoint(group)
    return SimpleNamespace(kernel=kernel, sls=sls, server=server,
                           client=client, ssys=ssys, csys=csys, lfd=lfd,
                           sfd=sfd, cfd=cfd, group=group, image=image)


def rolled_back_server(w):
    [proc], _ = rollback(w.sls, w.group)
    return Syscalls(w.kernel, proc)


class TestRollbackPeers:
    def test_live_client_is_relinked(self, world):
        rsys = rolled_back_server(world)
        assert rsys.read(world.sfd, 64) == REQUEST
        world.csys.write(world.cfd, b"again")
        assert rsys.read(world.sfd, 64) == b"again"

    def test_closed_client_is_not_relinked(self, world):
        world.csys.close(world.cfd)
        rsys = rolled_back_server(world)
        assert rsys.read(world.sfd, 64) == REQUEST
        assert rsys.read(world.sfd, 64) == b""
        with pytest.raises(NotConnected):
            rsys.write(world.sfd, b"reply")

    def test_exited_client_is_not_relinked(self, world):
        world.kernel.exit(world.client)
        world.kernel.reap(world.client)
        rsys = rolled_back_server(world)
        assert rsys.read(world.sfd, 64) == REQUEST
        assert rsys.read(world.sfd, 64) == b""
        with pytest.raises(NotConnected):
            rsys.write(world.sfd, b"reply")


class TestCloneBesideOriginal:
    def test_clone_leaves_the_originals_client_alone(self, world):
        [clone], _ = world.sls.restore(world.image, new_instance=True)
        assert world.ssys.read(world.sfd, 64) == REQUEST
        world.csys.write(world.cfd, b"next")
        assert world.ssys.read(world.sfd, 64) == b"next"
        # The clone's copy of the connection has no peer: it drains the
        # request it was restored with, then reads EOF.
        csys = Syscalls(world.kernel, clone)
        assert csys.read(world.sfd, 64) == REQUEST
        assert csys.read(world.sfd, 64) == b""

    def test_clone_does_not_take_the_originals_name(self, world):
        world.sls.restore(world.image, new_instance=True)
        newcomer = Syscalls(world.kernel, world.kernel.spawn("newcomer"))
        newcomer.connect("svc")
        world.ssys.accept(world.lfd)


class TestListenerName:
    def test_rolled_back_listener_takes_new_connections(self, world):
        rsys = rolled_back_server(world)
        newcomer = Syscalls(world.kernel, world.kernel.spawn("newcomer"))
        nfd = newcomer.connect("svc")
        afd = rsys.accept(world.lfd)
        newcomer.write(nfd, b"hello")
        assert rsys.read(afd, 5) == b"hello"

    def test_name_is_free_once_its_listener_closes(self, world):
        world.ssys.close(world.lfd)
        fd = world.csys.bind_listen("svc")
        assert world.csys.socket_of(fd).listening


def test_exited_processes_objects_become_garbage():
    kernel = Kernel(memory_bytes=4 * GIB)
    proc = kernel.spawn("app")
    sys = Syscalls(kernel, proc)
    rfd, wfd = sys.pipe()
    afd, bfd = sys.socketpair()
    ofd = sys.open("/scratch", O_RDWR | O_CREAT)
    files = [proc.fdtable.lookup(fd) for fd in (rfd, wfd, afd, bfd, ofd)]
    objects = [*files, files[0].pipe, files[2].socket, files[3].socket]
    refs = [weakref.ref(obj) for obj in objects]
    del files, objects
    kernel.exit(proc)
    kernel.reap(proc)
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
