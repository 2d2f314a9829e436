"""Tests for rename and symlinks across VFS, tmpfs, and SLSFS."""

import pytest

from repro.errors import FileExists, IsADirectory, NoSuchFile, PosixError
from repro.hw.nvme import NvmeDevice
from repro.objstore.store import ObjectStore
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Kernel
from repro.posix.objects import ObjectRegistry
from repro.posix.syscalls import Syscalls
from repro.posix.vnode import TmpFS, VfsNamespace
from repro.sim.clock import SimClock
from repro.slsfs.fs import SlsFS


@pytest.fixture
def sys():
    kernel = Kernel()
    return Syscalls(kernel, kernel.spawn("app"))


class TestRename:
    def test_rename_moves_content(self, sys):
        fd = sys.open("/old", O_RDWR | O_CREAT)
        sys.write(fd, b"contents")
        sys.rename("/old", "/new")
        with pytest.raises(NoSuchFile):
            sys.open("/old", O_RDWR)
        new_fd = sys.open("/new", O_RDWR)
        assert sys.read(new_fd, 8) == b"contents"

    def test_rename_across_directories(self, sys):
        sys.mkdir("/a")
        sys.mkdir("/b")
        fd = sys.open("/a/f", O_RDWR | O_CREAT)
        sys.write(fd, b"x")
        sys.rename("/a/f", "/b/g")
        assert sys.listdir("/a") == []
        assert sys.listdir("/b") == ["g"]

    def test_rename_replaces_destination(self, sys):
        fd = sys.open("/src", O_RDWR | O_CREAT)
        sys.write(fd, b"winner")
        victim = sys.open("/dst", O_RDWR | O_CREAT)
        sys.write(victim, b"loser")
        sys.rename("/src", "/dst")
        got = sys.open("/dst", O_RDWR)
        assert sys.read(got, 6) == b"winner"

    def test_open_descriptor_survives_rename(self, sys):
        fd = sys.open("/moving", O_RDWR | O_CREAT)
        sys.write(fd, b"stable")
        sys.rename("/moving", "/moved")
        sys.lseek(fd, 0)
        assert sys.read(fd, 6) == b"stable"

    def test_rename_missing_source(self, sys):
        with pytest.raises(NoSuchFile):
            sys.rename("/ghost", "/dst")

    def test_rename_directory_rejected(self, sys):
        sys.mkdir("/d")
        with pytest.raises(IsADirectory):
            sys.rename("/d", "/e")

    def test_cross_fs_rename_rejected(self, sys):
        sys.kernel.vfs.mount("/mnt", TmpFS(sys.kernel.registry))
        sys.open("/plain", O_RDWR | O_CREAT)
        with pytest.raises(PosixError):
            sys.rename("/plain", "/mnt/elsewhere")


class TestSymlinks:
    def test_symlink_resolves_on_open(self, sys):
        fd = sys.open("/real", O_RDWR | O_CREAT)
        sys.write(fd, b"through the link")
        sys.symlink("/real", "/alias")
        via = sys.open("/alias", O_RDWR)
        assert sys.read(via, 16) == b"through the link"

    def test_readlink(self, sys):
        sys.symlink("/target/path", "/link")
        assert sys.readlink("/link") == "/target/path"

    def test_readlink_non_symlink(self, sys):
        sys.open("/plain", O_RDWR | O_CREAT)
        with pytest.raises(PosixError):
            sys.readlink("/plain")

    def test_symlink_to_directory_component(self, sys):
        sys.mkdir("/deep")
        fd = sys.open("/deep/file", O_RDWR | O_CREAT)
        sys.write(fd, b"found")
        sys.symlink("/deep", "/shortcut")
        via = sys.open("/shortcut/file", O_RDWR)
        assert sys.read(via, 5) == b"found"

    def test_dangling_symlink_open_fails(self, sys):
        sys.symlink("/nowhere", "/dangling")
        with pytest.raises(NoSuchFile):
            sys.open("/dangling", O_RDWR)

    def test_symlink_loop_detected(self, sys):
        sys.symlink("/b", "/a")
        sys.symlink("/a", "/b")
        with pytest.raises(PosixError):
            sys.open("/a", O_RDWR)

    def test_relative_symlink(self, sys):
        sys.mkdir("/dir")
        fd = sys.open("/dir/real", O_RDWR | O_CREAT)
        sys.write(fd, b"rel")
        sys.symlink("real", "/dir/rel-link")
        via = sys.open("/dir/rel-link", O_RDWR)
        assert sys.read(via, 3) == b"rel"

    def test_duplicate_symlink_name(self, sys):
        sys.symlink("/x", "/link")
        with pytest.raises(FileExists):
            sys.symlink("/y", "/link")


class TestSlsfsParity:
    @pytest.fixture
    def slsfs_world(self):
        store = ObjectStore(NvmeDevice(SimClock()))
        fs = SlsFS(store, ObjectRegistry())
        return fs, VfsNamespace(fs), store

    def test_slsfs_rename(self, slsfs_world):
        fs, vfs, store = slsfs_world
        handle = vfs.open("/old", O_RDWR | O_CREAT)
        handle.write(b"data")
        vfs.rename("/old", "/new")
        assert vfs.listdir("/") == ["new"]
        assert vfs.open("/new", O_RDWR).read(4) == b"data"

    def test_slsfs_symlink_survives_crash(self, slsfs_world):
        fs, vfs, store = slsfs_world
        handle = vfs.open("/real", O_RDWR | O_CREAT)
        handle.write(b"persisted")
        vfs.symlink("/real", "/alias")
        fs.sync()
        store.device.flush_barrier()
        store.device.crash()
        fresh_store = ObjectStore(store.device)
        fresh_store.recover()
        fs2 = SlsFS.recover(fresh_store, ObjectRegistry())
        vfs2 = VfsNamespace(fs2)
        assert vfs2.readlink("/alias") == "/real"
        assert vfs2.open("/alias", O_RDWR).read(9) == b"persisted"
