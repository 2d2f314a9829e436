"""Tests for the Aurora file system (SLSFS)."""

import hashlib

import pytest

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    IsADirectory,
    NoSuchFile,
    ObjectStoreError,
)
from repro.hw.nvme import NvmeDevice
from repro.objstore.store import ObjectStore
from repro.posix.fd import O_CREAT, O_RDWR, FdTable
from repro.posix.vnode import VfsNamespace, VnodeType
from repro.sim.clock import SimClock
from repro.slsfs.fs import SlsFS
from repro.units import PAGE_SIZE


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def nvme(clock):
    return NvmeDevice(clock)


@pytest.fixture
def store(nvme):
    return ObjectStore(nvme)


@pytest.fixture
def fs(store):
    return SlsFS(store)


@pytest.fixture
def vfs(fs):
    return VfsNamespace(fs)


class TestBasicOps:
    def test_create_write_read(self, vfs):
        f = vfs.open("/db", O_RDWR | O_CREAT)
        f.write(b"hello slsfs")
        f.seek(0)
        assert f.read(11) == b"hello slsfs"

    def test_directories(self, vfs):
        vfs.mkdir("/data")
        vfs.open("/data/file", O_RDWR | O_CREAT)
        assert vfs.listdir("/data") == ["file"]
        with pytest.raises(DirectoryNotEmpty):
            vfs.unlink("/data")

    def test_multi_page_file(self, vfs):
        f = vfs.open("/big", O_RDWR | O_CREAT)
        data = bytes(range(256)) * 64  # 16 KiB
        f.write(data)
        f.seek(0)
        assert f.read(len(data)) == data

    def test_overwrite_within_page(self, vfs):
        f = vfs.open("/f", O_RDWR | O_CREAT)
        f.write(b"aaaaaaaaaa")
        f.seek(3)
        f.write(b"BBB")
        f.seek(0)
        assert f.read(10) == b"aaaBBBaaaa"

    def test_write_across_page_boundary(self, vfs):
        f = vfs.open("/f", O_RDWR | O_CREAT)
        f.seek(PAGE_SIZE - 2)
        f.write(b"spanning")
        f.seek(PAGE_SIZE - 2)
        assert f.read(8) == b"spanning"

    def test_truncate_shrink_and_grow(self, vfs):
        f = vfs.open("/f", O_RDWR | O_CREAT)
        f.write(b"0123456789")
        f.vnode.fs.truncate(f.vnode, 4)
        f.seek(0)
        assert f.read(10) == b"0123"
        f.vnode.fs.truncate(f.vnode, 8)
        f.seek(0)
        assert f.read(8) == b"0123\x00\x00\x00\x00"

    def test_duplicate_create_rejected(self, vfs, fs):
        vfs.open("/f", O_RDWR | O_CREAT)
        with pytest.raises(FileExists):
            fs.create(fs.root(), "f", VnodeType.REGULAR)

    def test_hard_link(self, vfs, fs):
        f = vfs.open("/orig", O_RDWR | O_CREAT)
        f.write(b"shared")
        fs.link(fs.root(), "alias", f.vnode)
        g = vfs.open("/alias", O_RDWR)
        assert g.read(6) == b"shared"


class TestPersistence:
    def test_sync_then_crash_then_recover(self, vfs, fs, store, nvme):
        f = vfs.open("/survivor", O_RDWR | O_CREAT)
        f.write(b"durable data " * 100)
        fs.sync()
        nvme.flush_barrier()
        nvme.crash()
        store2 = ObjectStore(nvme)
        store2.recover()
        fs2 = SlsFS.recover(store2)
        vfs2 = VfsNamespace(fs2)
        g = vfs2.open("/survivor", O_RDWR)
        assert g.read(13) == b"durable data "
        assert g.vnode.size == 1300

    def test_unsynced_data_lost_in_crash(self, vfs, fs, store, nvme):
        f = vfs.open("/synced", O_RDWR | O_CREAT)
        f.write(b"old")
        fs.sync()
        nvme.flush_barrier()
        f.write(b"NEW-UNSYNCED")
        nvme.crash()
        store2 = ObjectStore(nvme)
        store2.recover()
        fs2 = SlsFS.recover(store2)
        g = VfsNamespace(fs2).open("/synced", O_RDWR)
        assert g.read(3) == b"old"

    def test_incremental_sync_deduplicates(self, vfs, fs, store):
        f = vfs.open("/f", O_RDWR | O_CREAT)
        f.write(b"A" * PAGE_SIZE * 4)
        fs.sync()
        written_before = store.stats.pages_written
        f.seek(0)
        f.write(b"B")  # dirty one page
        fs.sync()
        # Only the changed page is stored anew (others dedup).
        assert store.stats.pages_written == written_before + 1

    def test_directory_tree_survives(self, vfs, fs, store, nvme):
        vfs.mkdir("/a")
        vfs.mkdir("/a/b")
        vfs.open("/a/b/leaf", O_RDWR | O_CREAT).write(b"x")
        fs.sync()
        nvme.flush_barrier()
        store2 = ObjectStore(nvme)
        store2.recover()
        fs2 = SlsFS.recover(store2)
        assert VfsNamespace(fs2).listdir("/a/b") == ["leaf"]

    def test_recover_empty_store(self, store):
        fs = SlsFS.recover(store)
        assert fs.root().is_dir

    def test_metadata_record_holds_no_second_page_table(self, vfs, fs, store):
        """The slot map names each page by hash alone — where it lives is
        the manifest's to say.  Pinned for a 256-page file (the private
        TLV page list this replaced made the record 9 621 B)."""
        content = b"".join(
            hashlib.sha256(b"%d" % i).digest() * 128 for i in range(256)
        )
        vfs.open("/big", O_RDWR | O_CREAT).write(content)
        snapshot = fs.sync()
        _meta, records, pages, _lineage = store.load_manifest(snapshot)
        assert len(pages) == 256
        assert records[0].extent.length == 6432
        assert VfsNamespace(SlsFS.recover(store)).open("/big", O_RDWR).read(
            len(content)) == content


class TestDamagedMetadata:
    """A metadata record that checksums but is not SLSFS metadata is a
    catalogued error from ``recover``, never a stray exception."""

    @pytest.fixture
    def synced(self, vfs, fs, store):
        vfs.open("/f", O_RDWR | O_CREAT).write(b"x" * PAGE_SIZE)
        snapshot = fs.sync()
        _meta, records, _pages, _lineage = store.load_manifest(snapshot)
        return snapshot, store.read_meta(records[0])

    def test_recordless_snapshot(self, store):
        plain = store.commit_snapshot("slsfs@9", meta=None, records=[], pages=[])
        with pytest.raises(ObjectStoreError):
            SlsFS.recover(store, plain)

    @pytest.mark.parametrize("damage", [
        lambda record: [1, 2, 3],
        lambda record: 7,
        lambda record: record["meta"],  # the bare pre-slot-map layout
        lambda record: {**record, "meta": [1, 2, 3]},
        lambda record: {**record, "meta": 7},
        lambda record: {**record, "pagemap_delta": {
            ino: rows[:-1] for ino, rows in record["pagemap_delta"].items()}},
        lambda record: {**record, "meta": {
            k: v for k, v in record["meta"].items() if k != "next_ino"}},
        lambda record: {**record, "meta": {**record["meta"], "orphans": [4]}},
        lambda record: {**record, "meta": {**record["meta"], "orphans": {"x": 1}}},
        lambda record: {**record, "meta": {**record["meta"], "inodes": {}}},
        lambda record: {**record, "meta": {**record["meta"], "inodes": [
            {k: v for k, v in inode.items() if k != "size"}
            for inode in record["meta"]["inodes"]]}},
        lambda record: {**record, "meta": {**record["meta"], "inodes": [
            {**inode, "entries": 5} for inode in record["meta"]["inodes"]]}},
    ])
    def test_wrong_shape(self, store, synced, damage):
        snapshot, record = synced
        store.read_meta = lambda ref: damage(record)
        with pytest.raises(ObjectStoreError):
            SlsFS.recover(store, snapshot)


class TestAnonymousFiles:
    def test_orphan_survives_crash(self, vfs, fs, store, nvme):
        """The paper's edge case: an unlinked-but-open file must
        survive a crash so the application checkpoint can be restored."""
        table = FdTable()
        f = vfs.open("/anon", O_RDWR | O_CREAT)
        table.install(f)
        f.write(b"anonymous content")
        vfs.unlink("/anon")
        fs.sync()
        nvme.flush_barrier()
        nvme.crash()
        store2 = ObjectStore(nvme)
        store2.recover()
        fs2 = SlsFS.recover(store2)
        assert fs2.orphans.orphans() == [f.vnode.ino]
        # Content readable through the recovered inode.
        inode = fs2._inodes[f.vnode.ino]
        vnode = fs2._make_vnode(inode)
        assert fs2.read(vnode, 0, 17) == b"anonymous content"

    def test_orphan_reclaimed_on_final_close(self, vfs, fs):
        table = FdTable()
        f = vfs.open("/anon", O_RDWR | O_CREAT)
        fd = table.install(f)
        f.write(b"x")
        ino = f.vnode.ino
        vfs.unlink("/anon")
        assert ino in fs._inodes
        table.close(fd)
        assert ino not in fs._inodes

    def test_posix_fs_would_lose_orphan(self, nvme):
        """Contrast: tmpfs (a POSIX fs) loses anonymous files on crash."""
        from repro.posix.vnode import TmpFS

        tmp = TmpFS()
        vfs = VfsNamespace(tmp)
        f = vfs.open("/anon", O_RDWR | O_CREAT)
        f.write(b"doomed")
        vfs.unlink("/anon")
        tmp.crash()
        assert tmp._data == {}


class TestClones:
    def test_zero_copy_clone(self, vfs, fs, store):
        f = vfs.open("/src", O_RDWR | O_CREAT)
        f.write(b"clone me " * 1000)
        fs.sync()
        pages_before = store.stats.pages_written
        clone = fs.clone_file(f.vnode, fs.root(), "dst")
        fs.sync()
        # Clone shares every page: no new page writes.
        assert store.stats.pages_written == pages_before
        g = vfs.open("/dst", O_RDWR)
        assert g.read(9) == b"clone me "

    def test_clone_diverges_on_write(self, vfs, fs):
        f = vfs.open("/src", O_RDWR | O_CREAT)
        f.write(b"original")
        fs.clone_file(f.vnode, fs.root(), "dst")
        g = vfs.open("/dst", O_RDWR)
        g.write(b"MUTATED!")
        f.seek(0)
        assert f.read(8) == b"original"

    def test_clone_of_directory_rejected(self, vfs, fs):
        vfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.clone_file(vfs.stat("/d"), fs.root(), "copy")

    def test_clone_name_conflict(self, vfs, fs):
        f = vfs.open("/src", O_RDWR | O_CREAT)
        with pytest.raises(FileExists):
            fs.clone_file(f.vnode, fs.root(), "src")
