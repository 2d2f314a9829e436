"""Tests for send/recv, continuous replication, and live migration."""

import pytest

from repro.core.backends import RemoteBackend, make_disk_backend
from repro.core.orchestrator import SLS
from repro.core.remote import (
    MigrationReceiver,
    export_image,
    live_migrate,
    sls_send,
)
from repro.hw.netdev import NetworkLink
from repro.hw.nvme import NvmeDevice
from repro.objstore.record import decode
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, KIB, PAGE_SIZE


@pytest.fixture
def hosts():
    """Two kernels sharing one clock, connected by 10 GbE."""
    src = Kernel(hostname="src", memory_bytes=4 * GIB)
    dst = Kernel(hostname="dst", memory_bytes=4 * GIB, clock=src.clock)
    src_sls, dst_sls = SLS(src), SLS(dst)
    link = NetworkLink(src.clock)
    src_ep, dst_ep = link.attach("src"), link.attach("dst")
    dst_store = ObjectStore(NvmeDevice(src.clock, name="dst-nvme"), mem=dst.mem)
    receiver = MigrationReceiver(dst_sls, dst_store, dst_ep)
    return src, dst, src_sls, dst_sls, src_ep, receiver


@pytest.fixture
def app(hosts):
    src, *_ , = hosts
    src_sls = hosts[2]
    proc = src.spawn("app")
    sys = Syscalls(src, proc)
    entry = sys.mmap(64 * KIB, name="heap")
    sys.populate(entry.start, 64 * KIB, fill_fn=lambda i: b"pg-%d" % i)
    group = src_sls.persist(proc, name="app")
    group.attach(make_disk_backend(src, NvmeDevice(src.clock)))
    return proc, sys, entry, group


#: ways a decoded image/checkpoint message can be wrong, each applied
#: to a well-formed one
MALFORMED_IMAGES = [
    lambda v: {k: x for k, x in v.items() if k != "pages"},
    lambda v: {k: x for k, x in v.items() if k != "group"},
    lambda v: {k: x for k, x in v.items() if k != "meta"},
    lambda v: {**v, "name": 7},
    lambda v: {**v, "epoch": "1"},
    lambda v: {**v, "meta": [1]},
    lambda v: {**v, "pages": {}},
    lambda v: {**v, "pages": v["pages"] + [[1, 1]]},            # a 2-element row
    lambda v: {**v, "pages": v["pages"] + [[1, 1, "text"]]},    # payload not bytes
    lambda v: {**v, "pages": v["pages"] + [["1", 1, b"page"]]},
    lambda v: {**v, "pages": v["pages"] + [7]},
]


class TestSendRecv:
    def test_image_transfers_and_restores(self, hosts, app):
        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        image = src_sls.checkpoint(group)
        src_sls.barrier(group)
        sls_send(image, src_ep, "dst")
        ready = receiver.pump(wait=True)
        assert ready == ["app"]
        procs, metrics = receiver.restore("app")
        rsys = Syscalls(dst, procs[0])
        assert rsys.peek(entry.start + 3 * PAGE_SIZE, 4) == b"pg-3"
        assert metrics.objstore_read_ns > 0

    def test_export_is_self_contained(self, hosts, app):
        src, dst, src_sls, *_ = hosts
        proc, sys, entry, group = app
        image = src_sls.checkpoint(group)
        blob = export_image(image)
        value = decode(blob)
        assert value["kind"] == "image"
        assert value["meta"]["procs"][0]["name"] == "app"
        assert len(value["pages"]) == image.metrics.pages_captured

    def test_recv_without_send_fails(self, hosts):
        from repro.errors import MigrationError

        *_, receiver = hosts
        with pytest.raises(MigrationError):
            receiver.restore("ghost")

    def test_send_refuses_a_damaged_store(self, hosts, app):
        # The DR gate (RECOVERY.md): shipping a checkpoint off a store
        # that does not fsck clean would replicate the damage to the
        # remote, so send refuses until fsck repairs the source —
        # unless explicitly overridden to salvage.
        from repro.errors import MigrationError

        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        image = src_sls.checkpoint(group)
        src_sls.barrier(group)
        store = group.store_backends()[0].store
        store.allocator.allocate(4096)  # leak: an orphan extent
        with pytest.raises(MigrationError, match="sls fsck --repair"):
            sls_send(image, src_ep, "dst")
        assert sls_send(image, src_ep, "dst", verify_store=False) > 0

    def test_send_checks_the_store_of_the_copy_it_sends(self, hosts, app):
        """The image knows which store its sent copy lives in: damage
        on another backend's store does not stop the send, damage on
        that one does."""
        from repro.errors import MigrationError

        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        group.attach(make_disk_backend(
            src, NvmeDevice(src.clock, name="nvme1"), name="disk1"))
        image = src_sls.checkpoint(group)
        src_sls.barrier(group)
        sent, other = (backend.store for backend in group.store_backends())
        assert image.default_backend() == "disk0"
        other.allocator.allocate(4096)  # leak: an orphan extent
        assert sls_send(image, src_ep, "dst") > 0
        sent.allocator.allocate(4096)
        image = src_sls.checkpoint(group)
        src_sls.barrier(group)
        with pytest.raises(MigrationError,
                           match="refusing to send from a damaged store"):
            sls_send(image, src_ep, "dst")

    def test_send_caches_clean_verdict_per_generation(self, hosts, app):
        # A clean fsck verdict is trusted until the next superblock
        # write: the first send walks the store, repeat sends of the
        # same generation skip the walk (and its device reads).
        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        image = src_sls.checkpoint(group)
        src_sls.barrier(group)
        store = group.store_backends()[0].store
        assert store._fsck_clean_generation is None
        sls_send(image, src_ep, "dst")
        assert store._fsck_clean_generation == store.volume.generation
        first_walk = src.clock.now
        sls_send(image, src_ep, "dst")
        resend = src.clock.now - first_walk
        # the cached resend must not pay for a second store walk; a
        # full walk reads every extent (tens of microseconds of
        # simulated device time), the transfer alone is far cheaper
        store._fsck_clean_generation = None
        sls_send(image, src_ep, "dst")
        rewalk = src.clock.now - first_walk - resend
        assert resend < rewalk

    def test_export_to_file_and_import(self, hosts, app, tmp_path):
        """'pipe a single checkpoint to a file to give to another
        user' — export, write to disk, import on another machine."""
        from repro.core.remote import export_image, import_image

        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        image = src_sls.checkpoint(group)
        src_sls.barrier(group)
        blob = export_image(image)
        path = tmp_path / "app.aurora"
        path.write_bytes(blob)

        imported = import_image(path.read_bytes(), receiver.store)
        procs, _ = dst_sls.restore(
            imported, backend_name="import", new_instance=True,
        )
        got = Syscalls(dst, procs[0]).peek(entry.start + PAGE_SIZE, 4)
        assert got == b"pg-1"

    def test_import_garbage_rejected(self, hosts):
        from repro.core.remote import import_image
        from repro.errors import MigrationError
        from repro.objstore.record import encode

        *_, receiver = hosts
        with pytest.raises(MigrationError):
            import_image(encode({"kind": "not-an-image"}), receiver.store)
        good = {"kind": "image", "group": "g", "name": "n", "epoch": 1,
                "meta": {"procs": [{}]}, "pages": [[1, 0, b"page"]]}
        for bad in MALFORMED_IMAGES:
            with pytest.raises(MigrationError):
                import_image(encode(bad(good)), receiver.store)
            # outside input is checked whole before the store is touched
            assert len(receiver.store.batch) == 0
        with pytest.raises(MigrationError):  # a message, but not a blob
            import_image(encode({**good, "kind": "checkpoint"}), receiver.store)
        assert import_image(encode(good), receiver.store).copies["import"].pages

    def test_receiver_rejects_malformed_messages(self, hosts):
        """The same messages off the network: ``MigrationError`` from
        ``pump``, nothing staged, no stream state left behind."""
        from repro.errors import MigrationError
        from repro.objstore.record import encode

        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        good = {"kind": "checkpoint", "group": "g", "name": "n", "epoch": 1,
                "meta": {"procs": [{}]}, "pages": [[1, 0, b"page"]]}
        for bad in MALFORMED_IMAGES + [lambda v: [1, 2], lambda v: {"kind": "finish"}]:
            src_ep.send("dst", encode(bad(good)))
            with pytest.raises(MigrationError):
                receiver.pump(wait=True)
            assert len(receiver.store.batch) == 0
            with pytest.raises(MigrationError):
                receiver.build_image("g")


class TestContinuousReplication:
    def test_remote_backend_ships_every_delta(self, hosts, app):
        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        remote = RemoteBackend("replica", src_ep, "dst")
        group.attach(remote)
        src_sls.checkpoint(group)
        sys.poke(entry.start, b"delta-1")
        src_sls.checkpoint(group)
        src_sls.barrier(group)
        receiver.pump(wait=True)
        assert remote.images_sent == 2
        # The receiver has assembled a complete image (full + delta).
        procs, _ = receiver.restore("app", new_instance=True)
        rsys = Syscalls(dst, procs[0])
        assert rsys.peek(entry.start, 7) == b"delta-1"
        assert rsys.peek(entry.start + PAGE_SIZE, 4) == b"pg-1"

    def test_a_built_image_is_not_rewritten_by_later_messages(self, hosts, app):
        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        group.attach(RemoteBackend("replica", src_ep, "dst"))
        src_sls.checkpoint(group)
        src_sls.barrier(group)
        receiver.pump(wait=True)
        image = receiver.build_image("app")

        def restore_lazily():
            procs, _ = dst_sls.restore(
                image, backend_name="recv", lazy=True, new_instance=True, prefetch="off",
            )
            return Syscalls(dst, procs[0])

        drill = restore_lazily()  # nothing faulted in yet
        sys.poke(entry.start + PAGE_SIZE, b"later")
        src_sls.checkpoint(group)
        src_sls.barrier(group)
        receiver.pump(wait=True)
        # neither the running instance's pager nor a fresh restore of
        # the same image sees the page the stream received afterwards
        assert drill.peek(entry.start + PAGE_SIZE, 4) == b"pg-1"
        assert restore_lazily().peek(entry.start + PAGE_SIZE, 4) == b"pg-1"
        newest, _ = receiver.restore("app", new_instance=True)
        assert Syscalls(dst, newest[0]).peek(entry.start + PAGE_SIZE, 5) == b"later"

    def test_replication_durability_is_arrival(self, hosts, app):
        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        group.detach("disk0")
        remote = RemoteBackend("replica", src_ep, "dst")
        group.attach(remote)
        image = src_sls.checkpoint(group)
        assert not image.durable
        src_sls.barrier(group)
        assert image.durable


class TestLiveMigration:
    def test_migrate_moves_application(self, hosts, app):
        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        old_pid = proc.pid
        restored, report = live_migrate(
            src_sls, group, receiver, src_ep, "dst", rounds=3
        )
        # Source torn down, target running the app.
        assert src.procs.get(old_pid) is None
        rsys = Syscalls(dst, restored[0])
        assert rsys.peek(entry.start + 2 * PAGE_SIZE, 4) == b"pg-2"
        assert report.rounds >= 2
        assert report.bytes_shipped > 0

    def test_migration_downtime_smaller_than_total(self, hosts, app):
        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        restored, report = live_migrate(
            src_sls, group, receiver, src_ep, "dst", rounds=3
        )
        assert 0 < report.downtime_ns < report.total_ns

    def test_migrated_app_keeps_running(self, hosts, app):
        src, dst, src_sls, dst_sls, src_ep, receiver = hosts
        proc, sys, entry, group = app
        restored, _ = live_migrate(
            src_sls, group, receiver, src_ep, "dst", rounds=2
        )
        rsys = Syscalls(dst, restored[0])
        rsys.poke(entry.start, b"alive-on-dst")
        assert rsys.peek(entry.start, 12) == b"alive-on-dst"
