"""Failpoint behavior at every instrumented site.

Each test arms one failpoint and checks the site translates the
action into its native failure: device I/O errors, torn and dropped
writes, allocator exhaustion, commit/log/GC/sync failures, backend
degradation, remote retry + degrade-to-memory, and power cuts.
"""

import pytest

from repro.cli.recovery import build_demo_store, inject
from repro.core.backends import (
    MemoryBackend,
    RemoteBackend,
    make_disk_backend,
)
from repro.core.orchestrator import SLS
from repro.errors import (
    DeviceIOError,
    HardwareError,
    ObjectStoreError,
    PowerCut,
    StoreFullError,
)
from repro.fault import FailpointRegistry, FaultAction, names
from repro.fault.crashtest import SWEEP_SITES
from repro.hw.netdev import NetworkLink
from repro.hw.nvme import NvmeDevice
from repro.objstore import repair_store
from repro.objstore.gc import GarbageCollector
from repro.objstore.log import PersistentLog
from repro.objstore.scrub import Scrubber
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.sim.clock import SimClock
from repro.slsfs.fs import SlsFS
from repro.units import GIB, KIB, PAGE_SIZE


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def device(clock):
    dev = NvmeDevice(clock)
    dev.attach_faults(FailpointRegistry(clock=clock))
    return dev


@pytest.fixture
def store(device):
    st = ObjectStore(device)
    st.attach_faults(device.faults)
    return st


class TestDeviceSites:
    def test_read_fail(self, device):
        device.faults.arm(names.FP_DEVICE_READ, FaultAction("fail"))
        with pytest.raises(DeviceIOError):
            device.read(0, 512)

    def test_write_fail(self, device):
        device.faults.arm(names.FP_DEVICE_WRITE, FaultAction("fail"))
        with pytest.raises(DeviceIOError):
            device.write(0, b"x" * 512)

    def test_write_crash_leaves_media_untouched(self, device):
        device.write(0, b"before")
        device.flush_barrier()
        device.faults.arm(names.FP_DEVICE_WRITE, FaultAction("crash"))
        with pytest.raises(PowerCut):
            device.write(0, b"after!")
        assert device.read(0, 6) == b"before"

    def test_torn_write_lands_prefix_only(self, device):
        device.faults.arm(
            names.FP_DEVICE_WRITE, FaultAction("torn", fraction=0.5)
        )
        device.write(0, b"AAAABBBB")
        device.flush_barrier()
        # Only the first half reached the media; the tail reads zeros.
        assert device.read(0, 8) == b"AAAA\x00\x00\x00\x00"

    def test_dropped_write_acknowledged_but_lost(self, device):
        device.faults.arm(names.FP_DEVICE_WRITE, FaultAction("drop"))
        ticket = device.write_async(0, b"ghost")
        assert ticket.completes_at > 0  # caller sees a normal ack
        device.flush_barrier()
        assert device.read(0, 5) == b"\x00" * 5

    def test_dropped_flush_keeps_writes_in_flight(self, device, clock):
        device.write_async(0, b"pending")
        device.faults.arm(names.FP_DEVICE_FLUSH, FaultAction("drop"))
        before = clock.now
        assert device.flush_barrier() == before  # no drain
        assert device.pending_writes() == 1
        device.crash()  # a later power cut tears them
        assert device.read(0, 7) == b"\x00" * 7

    def test_flush_fail(self, device):
        device.faults.arm(names.FP_DEVICE_FLUSH, FaultAction("fail"))
        with pytest.raises(DeviceIOError):
            device.flush_barrier()

    def test_label_match_selects_device(self, clock):
        registry = FailpointRegistry(clock=clock)
        a = NvmeDevice(clock, name="a")
        b = NvmeDevice(clock, name="b")
        a.attach_faults(registry)
        b.attach_faults(registry)
        registry.arm(names.FP_DEVICE_WRITE, FaultAction("fail"), device="b")
        a.write(0, b"fine")
        with pytest.raises(DeviceIOError):
            b.write(0, b"doomed")


class TestStoreSites:
    def test_alloc_fail(self, store):
        store.faults.arm(names.FP_STORE_ALLOC, FaultAction("fail"))
        with pytest.raises(StoreFullError):
            store.write_page(b"payload")

    def test_write_record_fail(self, store):
        store.faults.arm(names.FP_STORE_WRITE_RECORD, FaultAction("fail"))
        with pytest.raises(ObjectStoreError):
            store.write_meta(oid=1, value={"k": "v"})

    def test_commit_fail_before_superblock(self, store):
        ref = store.write_meta(oid=1, value={"k": "v"})
        store.faults.arm(names.FP_STORE_COMMIT, FaultAction("fail"))
        with pytest.raises(ObjectStoreError):
            store.commit_snapshot("snap", meta={}, records=[ref], pages=[])
        assert store.snapshots() == []

    def test_commit_crash_label_match_by_snapshot(self, store):
        ref = store.write_meta(oid=1, value={"k": "v"})
        store.faults.arm(
            names.FP_STORE_COMMIT, FaultAction("crash"), snapshot="s2"
        )
        store.commit_snapshot("s1", meta={}, records=[ref], pages=[])
        with pytest.raises(PowerCut):
            store.commit_snapshot("s2", meta={}, records=[ref], pages=[])

    def test_log_append_fail(self, store):
        log = PersistentLog(store, owner_oid=1, capacity=64 * 1024)
        log.append(b"ok", sync=True)
        store.faults.arm(names.FP_LOG_APPEND, FaultAction("fail"))
        with pytest.raises(ObjectStoreError):
            log.append(b"doomed", sync=True)
        # The failed append consumed no sequence number space on disk.
        assert [p for _s, p in log.scan_region()] == [b"ok"]

    def test_gc_fail(self, store):
        store.faults.arm(names.FP_GC_COLLECT, FaultAction("fail"))
        with pytest.raises(ObjectStoreError):
            GarbageCollector(store).collect()

    def test_slsfs_sync_crash(self, store):
        fs = SlsFS(store)
        store.faults.arm(names.FP_FS_SYNC, FaultAction("crash"))
        with pytest.raises(PowerCut):
            fs.sync()



# -- the store-level gate ---------------------------------------------------------


def _gate_delta(store):
    content = bytes(range(256)) * 16
    base = store.write_page(content)
    store.write_page(b"gate" + content[4:], delta_base=base.content_hash,
                     dirty_extents=[(0, 4)])


def _gate_batch(store):
    store.write_meta(1, {"gate": True}, epoch=9)
    store.batch.flush()


def _gate_commit(store):
    store.commit_snapshot("gate", {}, [], [])


STORE = ("store", "fsck-nvme")

#: failpoint -> (driver, default crash message, default fail message,
#: sorted fault-log labels), pinned from the twelve per-site ladders
#: ``ObjectStore._failpoint`` replaced (demo store of ``sls fsck``)
GATE_SITES = {
    names.FP_STORE_WRITE_RECORD: (
        lambda s: s.write_meta(1, {"gate": True}),
        "power cut before record write", "injected record-write failure",
        (("kind", 1), STORE)),
    names.FP_STORE_WRITE_COMPRESSED: (
        lambda s: s.write_page(b"gate-zlib" + b"\xab" * KIB),
        "power cut before encoded page write",
        "injected encoded-page write failure",
        (("saved", 4068), STORE)),
    names.FP_STORE_WRITE_DELTA: (
        _gate_delta,
        "power cut before encoded page write",
        "injected encoded-page write failure",
        (("saved", 4032), STORE)),
    names.FP_STORE_BATCH_FLUSH: (
        _gate_batch,
        "power cut at batch flush", "injected batch-flush failure",
        (("records", 1), STORE)),
    names.FP_STORE_SHARD_FLUSH: (
        _gate_batch,
        "power cut at shard 0 flush", "injected shard 0 flush failure",
        (("records", 1), ("shard", 0), STORE)),
    names.FP_STORE_COMMIT: (
        _gate_commit,
        "power cut committing 'gate'", "injected commit failure for 'gate'",
        (("snapshot", "gate"), STORE)),
    names.FP_STORE_WRITE_DIRECTORY: (
        _gate_commit,
        "power cut before directory write", "injected directory-write failure",
        (("snapshots", 4), STORE)),
    names.FP_STORE_DELETE: (
        lambda s: s.delete_snapshot(s.snapshot_by_name("demo-0").snap_id),
        "power cut deleting 'demo-0'", "injected delete failure for 'demo-0'",
        (("snapshot", "demo-0"), STORE)),
    names.FP_LOG_APPEND: (
        lambda s: PersistentLog(s, 7777, capacity=64 * KIB).append(b"entry"),
        "power cut appending seq 1", "injected log-append failure",
        (("owner", 7777), ("seq", 1))),
    names.FP_GC_COLLECT: (
        lambda s: GarbageCollector(s).collect(),
        "power cut during gc", "injected gc failure",
        (("pending", 0), STORE)),
    names.FP_FSCK_REPAIR: (
        repair_store,
        "power cut during fsck repair", "injected fsck repair failure",
        (("findings", 1), STORE)),
    names.FP_FS_SYNC: (
        lambda s: SlsFS(s).sync(name="gate-fs"),
        "power cut during slsfs sync", "injected slsfs sync failure",
        (("fs", "slsfs"),)),
    names.FP_SCRUB_STEP: (
        lambda s: Scrubber(s, batch_extents=4).step(),
        "power cut during scrub step", "injected scrub-step failure",
        (("extents", 4), STORE)),
}


def test_store_gate_preserves_every_site():
    """Every site behind ``ObjectStore._failpoint`` (all the swept
    store-level failpoints plus write_record/delete/fsck.repair), armed
    ``crash`` then ``fail``: same exception type, default message,
    ``at_ns`` and fault-log labels as the per-site ladders had."""
    assert set(SWEEP_SITES) - set(GATE_SITES) == {
        names.FP_DEVICE_WRITE, names.FP_DEVICE_BATCH,  # device-level
    }
    for name, (drive, crash_msg, fail_msg, labels) in GATE_SITES.items():
        for kind, error, message in (("crash", PowerCut, crash_msg),
                                     ("fail", ObjectStoreError, fail_msg)):
            device, store, _obs = build_demo_store()
            if name == names.FP_FSCK_REPAIR:
                inject(device, store, "orphan")
            faults = FailpointRegistry(device.clock, seed=7)
            store.attach_faults(faults)
            faults.arm(name, FaultAction(kind))
            with pytest.raises(error) as caught:
                drive(store)
            assert type(caught.value) is error, (name, kind)
            assert str(caught.value) == message, (name, kind)
            [record] = faults.log
            assert (record.name, record.kind) == (name, kind)
            assert record.labels == labels, (name, kind)
            if kind == "crash":
                assert caught.value.at_ns == record.at_ns == device.clock.now

    # the armed action's own reason wins over the site default
    device, store, _obs = build_demo_store()
    store.attach_faults(FailpointRegistry(device.clock, seed=7))
    store.faults.arm(names.FP_STORE_COMMIT, FaultAction("crash", reason="why"))
    with pytest.raises(PowerCut, match="^why$"):
        _gate_commit(store)


@pytest.fixture
def world():
    kernel = Kernel(memory_bytes=1 * GIB)
    sls = SLS(kernel)
    proc = kernel.spawn("app")
    sysc = Syscalls(kernel, proc)
    entry = sysc.mmap(4 * PAGE_SIZE, name="heap")
    sysc.populate(entry.start, 4 * PAGE_SIZE, fill_fn=lambda i: b"pg%d" % i)
    group = sls.persist(proc, name="app")
    return kernel, sls, group


class TestBackendSites:
    def test_persist_fail_degrades_to_healthy_backends(self, world):
        """One failed backend shrinks durability expectations; the
        checkpoint still lands on the healthy one (orchestrator's
        per-backend HardwareError handling)."""
        kernel, sls, group = world
        group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
        group.attach(MemoryBackend("mem0"))
        kernel.faults.arm(
            names.FP_BACKEND_PERSIST, FaultAction("fail"), backend="mem0"
        )
        image = sls.checkpoint(group)
        sls.barrier(group)
        assert image.durable
        assert image.durable_on == {"disk0"}

    def test_persist_crash_is_not_swallowed(self, world):
        """PowerCut is deliberately not a HardwareError: per-backend
        failure handling must never treat a power cut as one slow
        device."""
        kernel, sls, group = world
        group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
        kernel.faults.arm(names.FP_BACKEND_PERSIST, FaultAction("crash"))
        with pytest.raises(PowerCut):
            sls.checkpoint(group)


class TestRemoteRetryAndDegrade:
    def attach_remote(self, kernel, group, **kwargs):
        link = NetworkLink(kernel.clock)
        src = link.attach("src")
        link.attach("dst")
        remote = RemoteBackend("replica", src, "dst", **kwargs)
        group.attach(remote)
        return remote

    def test_timeout_retries_with_backoff_then_succeeds(self, world):
        kernel, sls, group = world
        remote = self.attach_remote(kernel, group)
        kernel.faults.arm(
            names.FP_REMOTE_SEND, FaultAction("timeout"), count=2
        )
        before = kernel.clock.now
        image = sls.checkpoint(group)
        sls.barrier(group)
        assert image.durable_on == {"replica"}
        assert remote.timeouts == 2
        assert remote.retries == 2
        assert not remote.degraded
        # Exponential backoff: two retries cost 1ms + 2ms of virtual time.
        assert kernel.clock.now - before >= 3_000_000

    def test_exhausted_retries_degrade_to_memory(self, world):
        kernel, sls, group = world
        remote = self.attach_remote(kernel, group, max_retries=2)
        kernel.faults.arm(
            names.FP_REMOTE_SEND, FaultAction("timeout"), count=None
        )
        image = sls.checkpoint(group)
        assert remote.degraded
        assert remote.images_sent == 0
        assert not image.durable_on
        # Connectivity returns: the backlog drains and durability lands.
        kernel.faults.disarm()
        assert remote.flush_backlog() == 1
        assert not remote.degraded
        deadline = kernel.events.next_deadline()
        if deadline is not None:
            kernel.events.run_until(deadline)
        assert image.durable_on == {"replica"}

    def test_send_fail_raises_hardware_error(self, world):
        kernel, sls, group = world
        remote = self.attach_remote(kernel, group)
        kernel.faults.arm(names.FP_REMOTE_SEND, FaultAction("fail"))
        with pytest.raises(HardwareError):
            remote._try_send(b"payload", "img")


class TestZeroCostWhenDisarmed:
    def test_kernel_boots_with_empty_registry(self):
        kernel = Kernel()
        assert kernel.faults.armed() == []
        assert kernel.faults.log == []

    def test_checkpoint_unperturbed_by_disarmed_plane(self, world):
        """Same workload, registry present vs. armed-elsewhere: the
        virtual-time cost of the checkpoint must be identical."""
        kernel, sls, group = world
        group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
        sls.checkpoint(group)
        t1 = kernel.clock.now

        kernel2 = Kernel(memory_bytes=1 * GIB)
        sls2 = SLS(kernel2)
        proc2 = kernel2.spawn("app")
        sysc2 = Syscalls(kernel2, proc2)
        entry2 = sysc2.mmap(4 * PAGE_SIZE, name="heap")
        sysc2.populate(
            entry2.start, 4 * PAGE_SIZE, fill_fn=lambda i: b"pg%d" % i
        )
        group2 = sls2.persist(proc2, name="app")
        group2.attach(make_disk_backend(kernel2, NvmeDevice(kernel2.clock)))
        # Armed, but matching a label no site ever carries.
        kernel2.faults.arm(
            names.FP_DEVICE_WRITE, FaultAction("fail"), device="no-such"
        )
        sls2.checkpoint(group2)
        assert kernel2.clock.now == t1
