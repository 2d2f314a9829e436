"""Tests for data-only checkpoints (the explicit persistence primitive)."""

import pytest

from repro.core.api import AuroraApi
from repro.core.backends import make_disk_backend
from repro.core.datasnap import (
    datarestore,
    datasnap,
    drop_datasnap,
    list_datasnaps,
)
from repro.core.orchestrator import SLS
from repro.errors import NoSuchObject, ObjectStoreError, SlsError
from repro.hw.nvme import NvmeDevice
from repro.objstore.image import read_image
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, PAGE_SIZE


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=4 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


@pytest.fixture
def world(kernel, sls):
    proc = kernel.spawn("db")
    sys = Syscalls(kernel, proc)
    entry = sys.mmap(16 * PAGE_SIZE, name="buffer-pool")
    sys.populate(entry.start, 16 * PAGE_SIZE, fill_fn=lambda i: b"row-%d" % i)
    group = sls.persist(proc, name="db")
    backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
    group.attach(backend)
    api = AuroraApi(sls, proc)
    return proc, sys, entry, backend.store, api


class TestDatasnap:
    def test_snap_and_restore_roundtrip(self, world):
        proc, sys, entry, store, api = world
        api.sls_datasnap(entry.start, 16 * PAGE_SIZE, "pool-v1")
        sys.poke(entry.start, b"MUTATED")
        sys.poke(entry.start + 7 * PAGE_SIZE, b"ALSO-MUTATED")
        api.sls_datarestore("pool-v1")
        assert sys.peek(entry.start, 5) == b"row-0"
        assert sys.peek(entry.start + 7 * PAGE_SIZE, 5) == b"row-7"

    def test_no_execution_state_captured(self, world):
        proc, sys, entry, store, api = world
        snap = api.sls_datasnap(entry.start, 4 * PAGE_SIZE, "small")
        value, page_map = read_image(store, snap.snapshot)
        assert value["kind"] == "datasnap"
        assert "procs" not in value  # no process metadata at all
        assert list(page_map) == [0] and len(page_map[0]) == 4

    def test_restore_to_different_address(self, world):
        proc, sys, entry, store, api = world
        api.sls_datasnap(entry.start, 4 * PAGE_SIZE, "relocatable")
        other = sys.mmap(4 * PAGE_SIZE, name="elsewhere")
        api.sls_datarestore("relocatable", addr=other.start)
        assert sys.peek(other.start + 2 * PAGE_SIZE, 5) == b"row-2"

    def test_resnapshot_dedups_unchanged_pages(self, world):
        proc, sys, entry, store, api = world
        api.sls_datasnap(entry.start, 16 * PAGE_SIZE, "v1")
        written_before = store.stats.pages_written
        sys.poke(entry.start + 3 * PAGE_SIZE, b"changed")
        api.sls_datasnap(entry.start, 16 * PAGE_SIZE, "v2")
        # Only the changed page costs new storage.
        assert store.stats.pages_written == written_before + 1

    def test_versioned_snapshots_coexist(self, world):
        proc, sys, entry, store, api = world
        api.sls_datasnap(entry.start, 2 * PAGE_SIZE, "v1")
        sys.poke(entry.start, b"generation-2")
        api.sls_datasnap(entry.start, 2 * PAGE_SIZE, "v2")
        api.sls_datarestore("v1")
        assert sys.peek(entry.start, 5) == b"row-0"
        api.sls_datarestore("v2")
        assert sys.peek(entry.start, 12) == b"generation-2"

    def test_list_and_drop(self, world):
        proc, sys, entry, store, api = world
        api.sls_datasnap(entry.start, PAGE_SIZE, "a")
        api.sls_datasnap(entry.start, PAGE_SIZE, "b")
        assert api.sls_datasnaps() == ["a", "b"]
        drop_datasnap(store, "a")
        assert api.sls_datasnaps() == ["b"]
        with pytest.raises(NoSuchObject):
            drop_datasnap(store, "a")

    def test_survives_crash(self, world, kernel):
        from repro.objstore.store import ObjectStore
        from repro.mem.address_space import AddressSpace

        proc, sys, entry, store, api = world
        api.sls_datasnap(entry.start, 4 * PAGE_SIZE, "durable", sync=True)
        store.device.crash()
        fresh = ObjectStore(store.device, mem=kernel.mem)
        fresh.recover()
        target = AddressSpace(kernel.mem, "post-crash")
        target.mmap(4 * PAGE_SIZE, addr=entry.start)
        datarestore(fresh, target, "durable")
        assert target.read(entry.start + PAGE_SIZE, 5) == b"row-1"

    def test_validation(self, world):
        proc, sys, entry, store, api = world
        with pytest.raises(SlsError):
            api.sls_datasnap(entry.start + 1, PAGE_SIZE, "unaligned")
        with pytest.raises(SlsError):
            api.sls_datasnap(entry.start, 0, "empty")
        with pytest.raises(NoSuchObject):
            api.sls_datarestore("ghost")

    def test_record_holds_no_second_page_table(self, kernel):
        """Pinned for a 256-page region (the private TLV page list this
        replaced made the record 9 432 B)."""
        import hashlib

        proc = kernel.spawn("big")
        sys = Syscalls(kernel, proc)
        entry = sys.mmap(256 * PAGE_SIZE, name="pool")
        sys.populate(entry.start, 256 * PAGE_SIZE,
                     fill_fn=lambda i: hashlib.sha256(b"%d" % i).digest() * 128)
        store = make_disk_backend(kernel, NvmeDevice(kernel.clock)).store
        snap = datasnap(store, proc.aspace, entry.start, 256 * PAGE_SIZE, "pool")
        _meta, records, pages, _lineage = store.load_manifest(snap.snapshot)
        assert len(pages) == 256
        assert records[0].extent.length == 6252

    @pytest.mark.parametrize("damage", [
        lambda record: [1, 2, 3],
        lambda record: 7,
        lambda record: record["meta"],  # the bare pre-slot-map layout
        lambda record: {**record, "meta": [1, 2, 3]},
        lambda record: {**record, "meta": 7},
        lambda record: {**record, "pagemap_delta": {0: b"short row"}},
        lambda record: {**record, "meta": {"kind": "datasnap", "length": 1}},
        lambda record: {**record, "meta": {**record["meta"], "addr": "0x10"}},
        lambda record: {**record, "meta": {**record["meta"], "length": None}},
    ])
    def test_damaged_record_is_a_catalogued_error(self, world, damage):
        """A record that checksums but is not a data snapshot's: an
        ``ObjectStoreError``/``SlsError``, never a stray exception."""
        proc, sys, entry, store, api = world
        snap = api.sls_datasnap(entry.start, 2 * PAGE_SIZE, "pool")
        _meta, records, _pages, _lineage = store.load_manifest(snap.snapshot)
        record = store.read_meta(records[0])
        store.read_meta = lambda ref: damage(record)
        with pytest.raises((ObjectStoreError, SlsError)):
            api.sls_datarestore("pool")

    def test_recordless_snapshot_is_a_catalogued_error(self, world):
        proc, sys, entry, store, api = world
        store.commit_snapshot("data:hollow", meta=None, records=[], pages=[])
        with pytest.raises(ObjectStoreError):
            api.sls_datarestore("hollow")

    def test_unmapped_region_faults(self, world):
        from repro.errors import SegmentationFault

        proc, sys, entry, store, api = world
        with pytest.raises(SegmentationFault):
            api.sls_datasnap(0xDEAD0000, PAGE_SIZE, "bad")
