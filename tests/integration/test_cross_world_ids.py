"""Ids belong to the world that made them.

Every kernel numbers its own objects, so two kernels built the same
way hand out the same koids and container ids.  An image carries the
ids of the kernel that captured it: restored into another kernel, it
must not take them for that kernel's own objects — only a restore into
the capturing kernel rejoins live objects by their original ids.
"""

from types import SimpleNamespace

import pytest

from repro.core.backends import MemoryBackend, make_disk_backend
from repro.core.orchestrator import SLS
from repro.core.remote import MigrationReceiver, live_migrate
from repro.core.restore import load_image_from_store
from repro.core.rollback import rollback
from repro.hw.netdev import NetworkLink
from repro.hw.nvme import NvmeDevice
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, KIB

REQUEST = b"request"


def build_world(hostname, clock=None):
    """A server in a container and a persistence group, and a client
    outside both, whose request waits unread on the server's socket."""
    kernel = Kernel(hostname=hostname, memory_bytes=4 * GIB, clock=clock)
    sls = SLS(kernel)
    box = kernel.create_container("box")
    server = kernel.spawn("server", container=box)
    client = kernel.spawn("client")
    ssys, csys = Syscalls(kernel, server), Syscalls(kernel, client)
    ssys.mmap(64 * KIB, name="heap")
    lfd = ssys.bind_listen("svc")
    cfd = csys.connect("svc")
    sfd = ssys.accept(lfd)
    csys.write(cfd, REQUEST)
    group = sls.persist(server, name="server")
    device = NvmeDevice(kernel.clock, name=f"{hostname}-nvme")
    group.attach(make_disk_backend(kernel, device))
    return SimpleNamespace(kernel=kernel, sls=sls, box=box, server=server,
                           ssys=ssys, csys=csys, sfd=sfd, cfd=cfd,
                           group=group, device=device)


@pytest.fixture
def worlds():
    a = build_world("a")
    return a, build_world("b", clock=a.kernel.clock)


def restore_from_store(a, b):
    """B boots A's device and restores the image it finds there."""
    image = a.sls.checkpoint(a.group)
    a.sls.barrier(a.group)
    store = ObjectStore(a.device, mem=b.kernel.mem)
    store.recover()
    loaded = load_image_from_store(store, store.snapshot_by_name(image.name))
    procs, _ = b.sls.restore(loaded)
    return procs


def restore_by_migration(a, b):
    link = NetworkLink(a.kernel.clock)
    a_end, b_end = link.attach("a"), link.attach("b")
    store = ObjectStore(NvmeDevice(a.kernel.clock, name="b-recv"),
                        mem=b.kernel.mem)
    receiver = MigrationReceiver(b.sls, store, b_end)
    procs, _ = live_migrate(a.sls, a.group, receiver, a_end, "b")
    return procs


def test_identical_builds_number_alike(worlds):
    a, b = worlds
    assert b.box.cid == a.box.cid
    assert b.csys.socket_of(b.cfd).koid == a.csys.socket_of(a.cfd).koid


@pytest.mark.parametrize("restore", [restore_from_store, restore_by_migration])
def test_another_worlds_image_keeps_to_its_own_objects(worlds, restore):
    a, b = worlds
    [proc] = restore(a, b)
    # The restored socket's peer stayed behind in A: it drains the
    # buffered request, then reads EOF.
    sock = Syscalls(b.kernel, proc).socket_of(a.sfd)
    assert sock.recv(64) == REQUEST
    assert sock.recv(64) == b""
    # B's own client and server are still each other's peers.
    client_sock, server_sock = b.csys.socket_of(b.cfd), b.ssys.socket_of(b.sfd)
    assert client_sock.peer is server_sock
    assert server_sock.peer is client_sock


@pytest.mark.parametrize("restore", [restore_from_store, restore_by_migration])
def test_another_worlds_process_joins_none_of_its_containers(worlds, restore):
    a, b = worlds
    [proc] = restore(a, b)
    # The image's container id is A's; B's container of that number is
    # unrelated.  Neither the restored process, nor its child, nor a
    # rollback of B's own image of them joins it.
    child = b.kernel.fork(proc)
    group = b.sls.persist(proc, name="restored")
    group.attach(MemoryBackend("memory"))
    b.sls.checkpoint(group)
    rolled_back, _ = rollback(b.sls, group)
    assert len(rolled_back) == 2
    assert not any(p.container_id for p in [proc, child, *rolled_back])
    assert b.box.member_pids == {b.server.pid}
