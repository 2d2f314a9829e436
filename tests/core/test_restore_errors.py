"""Error-path tests for restore and the image loader."""

import pytest

from repro.core.backends import make_disk_backend
from repro.core.checkpoint import CheckpointImage
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.errors import ChecksumError, RestoreError, SlsError
from repro.hw.nvme import NvmeDevice
from repro.objstore.record import HEADER_SIZE
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, PAGE_SIZE


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=4 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


class TestRestoreErrors:
    def test_empty_image_rejected(self, sls):
        image = CheckpointImage(name="hollow", group_name="g", epoch=1,
                                incremental=False, meta={})
        with pytest.raises(RestoreError):
            sls.restore(image)

    def test_memory_restore_without_pages_rejected(self, sls):
        image = CheckpointImage(name="hollow", group_name="g", epoch=1,
                                incremental=False, meta={})
        with pytest.raises(RestoreError):
            sls.restore(image, backend_name="memory")

    def test_loader_rejects_plain_snapshot(self, kernel, sls):
        """A snapshot without a pagemap delta (e.g. an SLSFS snapshot)
        is not a restorable process image."""
        backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
        store = backend.store
        ref = store.write_meta(oid=1, value={"not": "an image"})
        snap = store.commit_snapshot("plain", meta={"incremental": False},
                                     records=[ref], pages=[])
        with pytest.raises(RestoreError):
            load_image_from_store(store, snap)

    def test_loader_rejects_images_of_other_producers(self, kernel):
        """SLSFS and data snapshots share the image format (value + slot
        map) but their value is no process group."""
        from repro.core.datasnap import datasnap
        from repro.objstore.store import ObjectStore
        from repro.posix.fd import O_CREAT, O_RDWR
        from repro.posix.vnode import VfsNamespace
        from repro.slsfs.fs import SlsFS

        store = ObjectStore(NvmeDevice(kernel.clock), mem=kernel.mem)
        fs = SlsFS(store)
        VfsNamespace(fs).open("/f", O_RDWR | O_CREAT).write(b"file")
        proc = kernel.spawn("db")
        entry = Syscalls(kernel, proc).mmap(PAGE_SIZE, name="pool")
        data = datasnap(store, proc.aspace, entry.start, PAGE_SIZE, "pool")
        for snapshot in (fs.sync(), data.snapshot):
            with pytest.raises(RestoreError, match="wrong shape"):
                load_image_from_store(store, snapshot)

    def test_loader_rejects_recordless_snapshot(self, kernel):
        device = NvmeDevice(kernel.clock)
        from repro.objstore.store import ObjectStore

        store = ObjectStore(device)
        snap = store.commit_snapshot("empty", meta={"incremental": False},
                                     records=[], pages=[])
        with pytest.raises(RestoreError):
            load_image_from_store(store, snap)

    def test_restore_survives_group_churn(self, kernel, sls):
        """Images from unpersisted groups stay restorable while their
        store backend is referenced by the image itself."""
        proc = kernel.spawn("app")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(4 * PAGE_SIZE, name="heap")
        sys.populate(entry.start, 4 * PAGE_SIZE, fill=b"x")
        group = sls.persist(proc, name="app")
        backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
        group.attach(backend)
        image = sls.checkpoint(group)
        sls.barrier(group)
        sls.unpersist(group)
        procs, _ = sls.restore(image, backend_name="disk0",
                               new_instance=True, name_suffix="-r")
        assert Syscalls(kernel, procs[0]).peek(entry.start, 1) == b"x"


# --- a checksummed record of the wrong shape is a RestoreError ----------------


def _checkpointed(kernel, sls, name="app", pages=4, fill=b"x"):
    proc = kernel.spawn(name)
    sys = Syscalls(kernel, proc)
    entry = sys.mmap(pages * PAGE_SIZE, name="heap")
    sys.populate(entry.start, pages * PAGE_SIZE, fill=fill)
    group = sls.persist(proc, name=name)
    backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
    group.attach(backend)
    image = sls.checkpoint(group)
    sls.barrier(group)
    return group, backend, image, entry


WRONG_SHAPES = [
    [1, 2, 3],
    7,
    {"meta": [1, 2], "pagemap_delta": {}},
    {"meta": {"procs": []}, "pagemap_delta": {}},
    {"meta": {"procs": {"0": {}}}, "pagemap_delta": {}},
    {"meta": {"procs": [7]}, "pagemap_delta": {}},
    {"meta": {"procs": [{}]}, "pagemap_delta": [[1, b"h" * 20]]},
    {"meta": {"procs": [{}]}, "pagemap_delta": {1: [[0, b"h" * 20]]}},
    {"meta": {"procs": [{}]}, "pagemap_delta": {1: b"r" * 25}},
    {"procs": []},
]


class TestWrongShapedMetaRecord:
    @pytest.mark.parametrize("value", WRONG_SHAPES, ids=lambda v: repr(v)[:40])
    @pytest.mark.parametrize("lazy", [True, False])
    def test_restore_of_a_wrong_shaped_image_raises_restoreerror(
            self, kernel, sls, value, lazy):
        """A store restore restores the image's in-memory value, so that
        is what is shape-checked."""
        _group, _backend, image, _entry = _checkpointed(kernel, sls)
        image.meta = value
        with pytest.raises(RestoreError, match="wrong shape"):
            sls.restore(image, backend_name="disk0", lazy=lazy,
                        new_instance=True, name_suffix="-r")

    @pytest.mark.parametrize("lazy", [True, False])
    def test_a_record_damaged_on_media_fails_the_restore(self, kernel, sls, lazy):
        """The restore does not decode the record, but still reads and
        verifies it: decay after the checkpoint restores nothing."""
        _group, backend, image, _entry = _checkpointed(kernel, sls)
        store = backend.store
        record = store.load_manifest(image.copies["disk0"].snapshot).records[0]
        block, within = divmod(record.extent.offset + HEADER_SIZE, 4096)
        store.device._blocks[block][within] ^= 0xFF
        procs_before = len(kernel.procs)
        with pytest.raises(ChecksumError):
            sls.restore(image, backend_name="disk0", lazy=lazy,
                        new_instance=True, name_suffix="-r")
        assert len(kernel.procs) == procs_before

    @pytest.mark.parametrize("value", WRONG_SHAPES, ids=lambda v: repr(v)[:40])
    def test_loader_raises_restoreerror(self, kernel, sls, value):
        _group, backend, image, _entry = _checkpointed(kernel, sls)
        backend.store.read_meta = lambda ref: value
        with pytest.raises(RestoreError, match="wrong shape"):
            load_image_from_store(backend.store, image.copies["disk0"].snapshot)

    def test_every_truncation_and_mutation_of_a_packed_record(self, kernel, sls):
        """Whatever the codec makes of a damaged-but-checksummed record,
        the loader answers with an image or a catalogued error."""
        from repro.objstore.snapshot import PAGEMAP_ROW
        from repro.errors import ObjectStoreError
        from repro.objstore.record import decode, encode

        _group, backend, image, _entry = _checkpointed(kernel, sls, pages=2)
        store, snapshot = backend.store, image.copies["disk0"].snapshot
        _meta, _records, pages, _lineage = store.load_manifest(snapshot)
        payload = encode({
            "meta": {"procs": [{"name": "app"}], "hot": {3: [0]}},
            "pagemap_delta": {3: b"".join(
                PAGEMAP_ROW.pack(i, ref.content_hash) for i, ref in enumerate(pages)
            )},
        })
        damaged = [payload[:cut] for cut in range(len(payload))]
        for pos in range(len(payload)):
            mutated = bytearray(payload)
            for byte in range(256):
                if byte != payload[pos]:
                    mutated[pos] = byte
                    damaged.append(bytes(mutated))
        loaded = 0
        for candidate in damaged:
            store.read_meta = lambda ref, candidate=candidate: decode(candidate)
            try:
                loaded += load_image_from_store(store, snapshot) is not None
            except (RestoreError, ObjectStoreError):
                pass
        del store.read_meta
        assert 0 < loaded < len(damaged)
        assert load_image_from_store(store, snapshot).copies["disk0"].pages


class TestStoreLookup:
    def test_the_store_holding_the_snapshot_wins_over_an_earlier_namesake(
            self, kernel, sls):
        """Every group's backend is "disk0": each image restores from
        the store its copy lives in, not the first one registered."""
        first = _checkpointed(kernel, sls, name="first")
        second = _checkpointed(kernel, sls, name="second", pages=2)
        # same snap_id on both stores, so only the name tells them apart
        assert (first[2].copies["disk0"].snapshot.snap_id
                == second[2].copies["disk0"].snapshot.snap_id)
        for _group, backend, image, entry in (first, second):
            procs, _ = sls.restore(image, backend_name="disk0", lazy=True,
                                   new_instance=True, name_suffix="-r")
            assert Syscalls(kernel, procs[0]).peek(entry.start, 1) == b"x"

    def test_a_copy_whose_snapshot_is_gone_is_not_restored(self, kernel, sls):
        """Deleting the snapshot a loaded image names leaves page refs
        nothing verifies any more: the restore refuses them."""
        _group, backend, image, _entry = _checkpointed(kernel, sls)
        store = backend.store
        loaded = load_image_from_store(store, image.copies["disk0"].snapshot)
        store.delete_snapshot(loaded.copies["disk0"].snapshot.snap_id)
        with pytest.raises(RestoreError, match="no longer in its store"):
            sls.restore(loaded, backend_name="disk0",
                        new_instance=True, name_suffix="-r")

    def test_a_store_argument_must_be_the_copys_own(self, kernel, sls):
        first = _checkpointed(kernel, sls, name="first")
        second = _checkpointed(kernel, sls, name="second")
        with pytest.raises(SlsError, match="not the one holding"):
            sls.restore(first[2], backend_name="disk0", store=second[1].store,
                        new_instance=True, name_suffix="-r")
        procs, _ = sls.restore(first[2], backend_name="disk0",
                               store=first[1].store,
                               new_instance=True, name_suffix="-r")
        assert Syscalls(kernel, procs[0]).peek(first[3].start, 1) == b"x"
