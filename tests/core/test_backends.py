"""Direct tests for the backend implementations."""

import pytest

from repro.core.backends import (
    MemoryBackend,
    NvdimmBackend,
    RemoteBackend,
    make_disk_backend,
)
from repro.core.orchestrator import SLS
from repro.hw.netdev import NetworkLink
from repro.hw.nvdimm import NvdimmDevice
from repro.hw.nvme import NvmeDevice
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, KIB, PAGE_SIZE


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=4 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


@pytest.fixture
def world(kernel, sls):
    proc = kernel.spawn("app")
    sys = Syscalls(kernel, proc)
    entry = sys.mmap(16 * PAGE_SIZE, name="heap")
    sys.populate(entry.start, 16 * PAGE_SIZE, fill_fn=lambda i: b"pg%d" % i)
    group = sls.persist(proc, name="app")
    return proc, sys, entry, group


class TestNvdimmBackend:
    def test_checkpoint_durable_sooner_than_nvme(self, kernel, sls, world):
        proc, sys, entry, group = world
        nvme = make_disk_backend(kernel, NvmeDevice(kernel.clock), name="nvme")
        nvdimm = NvdimmBackend(
            "nvdimm", ObjectStore(NvdimmDevice(kernel.clock), mem=kernel.mem)
        )
        group.attach(nvme)
        group.attach(nvdimm)
        image = sls.checkpoint(group)
        # NVDIMM's sub-µs latency drains first.
        first_durable = None
        guard = 0
        while not image.durable and guard < 10_000:
            deadline = kernel.events.next_deadline()
            if deadline is None:
                break
            kernel.events.run_until(deadline)
            if image.durable_on and first_durable is None:
                first_durable = next(iter(image.durable_on))
            guard += 1
        assert first_durable == "nvdimm"
        assert image.durable_on == {"nvme", "nvdimm"}

    def test_restorable_from_nvdimm(self, kernel, sls, world):
        proc, sys, entry, group = world
        nvdimm = NvdimmBackend(
            "nvdimm", ObjectStore(NvdimmDevice(kernel.clock), mem=kernel.mem)
        )
        group.attach(nvdimm)
        image = sls.checkpoint(group)
        sls.barrier(group)
        procs, metrics = sls.restore(image, backend_name="nvdimm",
                                     new_instance=True, name_suffix="-n")
        assert metrics.backend == "nvdimm"
        got = Syscalls(kernel, procs[0]).peek(entry.start + PAGE_SIZE, 3)
        assert got == b"pg1"


class TestMemoryBackendFrames:
    def test_image_deletion_releases_frames(self, kernel, sls, world):
        proc, sys, entry, group = world
        group.attach(MemoryBackend("memory"))
        sls.checkpoint(group)
        frames_with_image = kernel.phys.allocated_frames
        # Overwrite everything so the image holds sole refs to originals.
        for i in range(16):
            sys.poke(entry.start + i * PAGE_SIZE, b"new%d" % i)
        group.retention = 1
        sls.checkpoint(group, full=True)  # prunes the first image
        assert kernel.phys.allocated_frames < frames_with_image + 16

    def test_parent_deletion_keeps_child_frames_alive(self, kernel, sls, world):
        """A full image with a parent holds its own reference on each
        slot it inherited (not resident at its freeze), so deleting the
        parent cannot free frames the child still lists."""
        proc, sys, entry, group = world
        memory = MemoryBackend("memory")
        group.attach(memory)
        extra = sys.mmap(PAGE_SIZE, name="extra")
        sys.poke(extra.start, b"gone")
        parent = sls.checkpoint(group)           # full, lists extra's page
        page = parent.copies["memory"].pages[extra.obj.oid][0]
        sys.munmap(extra.start, PAGE_SIZE)       # the image is its sole owner
        child = sls.checkpoint(group, full=True)  # inherits the slot
        assert child.copies["memory"].pages[extra.obj.oid][0] is page
        memory.delete_image(parent)
        assert page.refcount > 0
        assert page.read(0, 4) == b"gone"
        memory.delete_image(child)               # no double free
        assert page.refcount == 0


class TestRemoteBackendOrdering:
    def test_durability_matches_network_arrival(self, kernel, sls, world):
        proc, sys, entry, group = world
        link = NetworkLink(kernel.clock)
        src = link.attach("src")
        link.attach("dst")
        remote = RemoteBackend("replica", src, "dst")
        group.attach(remote)
        image = sls.checkpoint(group)
        assert not image.durable
        when = sls.barrier(group)
        assert image.durable
        assert when >= link.spec.latency_ns

    def test_bytes_accounted(self, kernel, sls, world):
        proc, sys, entry, group = world
        link = NetworkLink(kernel.clock)
        src = link.attach("src")
        link.attach("dst")
        remote = RemoteBackend("replica", src, "dst")
        group.attach(remote)
        image = sls.checkpoint(group)
        assert remote.bytes_sent > 0
        assert image.metrics.bytes_flushed == remote.bytes_sent


class TestPackedMetadataSize:
    """Packed rows must not cost more media than the TLV lists they
    replaced (the v1 layouts, rebuilt here with the reference encoder).
    The lineage table is content v1 never had, so it is left out of the
    comparison."""

    #: the version field (``"v": 4`` is 5 bytes) plus one record row at
    #: fixed width (20 B) against its smallest TLV spelling (11 B: oid
    #: < 128, offset < 2 MiB, length < 16 KiB).  Page rows never lose —
    #: a v1 row is 36 B at best, on any volume, against 34 B packed — so
    #: this is all a manifest can grow by, and a handful of page rows pay
    #: it back.
    VERSION_FIELD, RECORD_ROW_SLACK = 5, 9

    @pytest.fixture
    def sizes(self, kernel, sls, monkeypatch):
        """Checkpoints an app of ``pages`` pages, then an incremental:
        ``[(record refs, packed manifest, v1 manifest, packed record,
        v1 record)]``."""
        import hashlib

        import repro.objstore.store as store_module
        from repro.objstore.snapshot import PAGEMAP_ROW
        from repro.objstore.record import encode
        from tests.objstore.test_record import reference_encode, reference_manifest_v1

        manifests, records = [], []
        real_encode_manifest = store_module.encode_manifest

        def spy_manifest(meta, refs, pages, lineage=()):
            payload = real_encode_manifest(meta, refs, pages, lineage)
            lineage_field = (len(encode({"lineage": bytes(12 * len(lineage))}))
                             - len(encode({})))
            manifests.append((
                len(refs), len(payload) - lineage_field,
                len(reference_manifest_v1(meta, refs, pages)),
            ))
            return payload

        monkeypatch.setattr(store_module, "encode_manifest", spy_manifest)
        real_write_meta = ObjectStore.write_meta

        def spy_meta(store, oid, value, epoch=0):
            listed = {
                obj: [list(row) for row in PAGEMAP_ROW.iter_unpack(bytes(rows))]
                for obj, rows in value["pagemap_delta"].items()
            }
            records.append((
                len(encode(value)),
                len(reference_encode({**value, "pagemap_delta": listed})),
            ))
            return real_write_meta(store, oid, value, epoch)

        monkeypatch.setattr(ObjectStore, "write_meta", spy_meta)

        def run(pages: int):
            proc = kernel.spawn("app")
            sys = Syscalls(kernel, proc)
            entry = sys.mmap(pages * PAGE_SIZE, name="heap")
            sys.populate(
                entry.start, pages * PAGE_SIZE,
                fill_fn=lambda i: hashlib.sha256(b"%d" % i).digest() * 128,
            )
            group = sls.persist(proc, name="app")
            group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
            sls.checkpoint(group)
            sys.poke(entry.start, b"dirty")
            sls.checkpoint(group)
            sls.barrier(group)
            return [m + r for m, r in zip(manifests, records)]

        return run

    def fixed_overhead_at_most(self, refs, packed_manifest, v1_manifest):
        return v1_manifest < packed_manifest <= (
            v1_manifest + self.VERSION_FIELD + self.RECORD_ROW_SLACK * refs
        )

    def test_full_and_incremental_images_shrink(self, sizes):
        full, incremental = sizes(64)
        for _refs, _packed, _v1, packed_record, v1_record in (full, incremental):
            assert packed_record < v1_record
        assert full[1] < full[2]
        # the incremental's manifest lists only what it dirtied: a table
        # as small as a one-page image's
        assert self.fixed_overhead_at_most(*incremental[:3])
        assert (full[0], incremental[0]) == (1, 2)  # own record (+ the parent's)

    def test_one_page_image_grows_by_the_fixed_overhead_at_most(self, sizes):
        for refs, packed_manifest, v1_manifest, packed_record, v1_record in sizes(1):
            assert packed_record < v1_record
            assert self.fixed_overhead_at_most(refs, packed_manifest, v1_manifest)
