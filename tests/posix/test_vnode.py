"""Unit tests for the VFS layer and tmpfs."""

import pytest

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    IsADirectory,
    NoSuchFile,
    NotADirectory,
    PosixError,
)
from repro.posix.fd import O_APPEND, O_CREAT, O_EXCL, O_RDONLY, O_RDWR, O_TRUNC
from repro.posix.objects import ObjectRegistry
from repro.posix.vnode import TmpFS, VfsNamespace, VnodeType


@pytest.fixture
def vfs():
    return VfsNamespace(TmpFS(ObjectRegistry()))


class TestPathResolution:
    def test_create_and_stat(self, vfs):
        vfs.open("/file.txt", O_RDWR | O_CREAT)
        vnode = vfs.stat("/file.txt")
        assert vnode.vtype is VnodeType.REGULAR

    def test_nested_directories(self, vfs):
        vfs.mkdir("/a")
        vfs.mkdir("/a/b")
        vfs.open("/a/b/c.txt", O_RDWR | O_CREAT)
        assert vfs.listdir("/a/b") == ["c.txt"]

    def test_normalization(self, vfs):
        vfs.mkdir("/dir")
        vfs.open("/dir/../dir/./file", O_RDWR | O_CREAT)
        assert vfs.listdir("/dir") == ["file"]

    def test_relative_path_rejected(self, vfs):
        with pytest.raises(PosixError):
            vfs.open("relative.txt", O_RDWR | O_CREAT)

    def test_missing_file(self, vfs):
        with pytest.raises(NoSuchFile):
            vfs.open("/ghost", O_RDWR)

    def test_component_not_a_directory(self, vfs):
        vfs.open("/plain", O_RDWR | O_CREAT)
        with pytest.raises(NotADirectory):
            vfs.open("/plain/below", O_RDWR | O_CREAT)


class TestOpenFlags:
    def test_excl_on_existing(self, vfs):
        vfs.open("/f", O_RDWR | O_CREAT)
        with pytest.raises(FileExists):
            vfs.open("/f", O_RDWR | O_CREAT | O_EXCL)

    def test_trunc_clears_content(self, vfs):
        f = vfs.open("/f", O_RDWR | O_CREAT)
        f.write(b"content")
        g = vfs.open("/f", O_RDWR | O_TRUNC)
        assert g.vnode.size == 0

    def test_append_mode(self, vfs):
        f = vfs.open("/f", O_RDWR | O_CREAT | O_APPEND)
        f.write(b"one")
        f.seek(0)
        f.write(b"two")  # O_APPEND forces the end
        f.seek(0)
        assert f.read(6) == b"onetwo"

    def test_readonly_blocks_write(self, vfs):
        vfs.open("/f", O_RDWR | O_CREAT)
        f = vfs.open("/f", O_RDONLY)
        with pytest.raises(PosixError):
            f.write(b"x")


class TestFileIo:
    def test_offset_tracking(self, vfs):
        f = vfs.open("/f", O_RDWR | O_CREAT)
        f.write(b"hello world")
        f.seek(6)
        assert f.read(5) == b"world"

    def test_sparse_write(self, vfs):
        f = vfs.open("/f", O_RDWR | O_CREAT)
        f.seek(100)
        f.write(b"x")
        f.seek(0)
        assert f.read(100) == b"\x00" * 100

    def test_read_past_eof(self, vfs):
        f = vfs.open("/f", O_RDWR | O_CREAT)
        f.write(b"ab")
        f.seek(0)
        assert f.read(100) == b"ab"

    def test_negative_seek_rejected(self, vfs):
        f = vfs.open("/f", O_RDWR | O_CREAT)
        with pytest.raises(PosixError):
            f.seek(-1)


class TestLinks:
    def test_unlink_removes_entry(self, vfs):
        vfs.open("/f", O_RDWR | O_CREAT)
        vfs.unlink("/f")
        with pytest.raises(NoSuchFile):
            vfs.stat("/f")

    def test_hard_link_shares_content(self, vfs):
        fs = vfs.mounts()["/"]
        f = vfs.open("/orig", O_RDWR | O_CREAT)
        f.write(b"shared")
        fs.link(fs.root(), "alias", f.vnode)
        g = vfs.open("/alias", O_RDWR)
        assert g.read(6) == b"shared"
        assert f.vnode.nlink == 2

    def test_unlink_one_link_keeps_other(self, vfs):
        fs = vfs.mounts()["/"]
        f = vfs.open("/orig", O_RDWR | O_CREAT)
        f.write(b"data")
        fs.link(fs.root(), "alias", f.vnode)
        vfs.unlink("/orig")
        assert vfs.open("/alias", O_RDWR).read(4) == b"data"

    def test_rmdir_requires_empty(self, vfs):
        vfs.mkdir("/d")
        vfs.open("/d/f", O_RDWR | O_CREAT)
        with pytest.raises(DirectoryNotEmpty):
            vfs.unlink("/d")
        vfs.unlink("/d/f")
        vfs.unlink("/d")

    def test_directory_io_rejected(self, vfs):
        vfs.mkdir("/d")
        vnode = vfs.stat("/d")
        fs = vfs.mounts()["/"]
        with pytest.raises(IsADirectory):
            fs.read(vnode, 0, 1)
        with pytest.raises(IsADirectory):
            fs.write(vnode, 0, b"x")


class TestAnonymousFiles:
    def test_unlinked_but_open_content_readable(self, vfs):
        f = vfs.open("/scratch", O_RDWR | O_CREAT)
        f.write(b"still here")
        vfs.unlink("/scratch")
        assert f.vnode.anonymous
        f.seek(0)
        assert f.read(10) == b"still here"

    def test_reclaimed_on_last_close(self, vfs):
        from repro.posix.fd import FdTable

        fs = vfs.mounts()["/"]
        table = FdTable()
        f = vfs.open("/scratch", O_RDWR | O_CREAT)
        fd = table.install(f)
        dup_fd = table.dup(fd)
        f.write(b"x")
        ino = f.vnode.ino
        vfs.unlink("/scratch")
        table.close(fd)  # one descriptor remains
        assert ino in fs._data
        table.close(dup_fd)  # last close reclaims the anonymous file
        assert ino not in fs._data


class TestMounts:
    def test_mount_and_route(self, vfs):
        other = TmpFS(vfs.registry)
        vfs.mount("/mnt", other)
        vfs.open("/mnt/inner", O_RDWR | O_CREAT)
        assert other.readdir(other.root()) == ["inner"]
        # Root fs unaffected.
        assert "inner" not in vfs.listdir("/")

    def test_longest_prefix_wins(self, vfs):
        outer, inner = TmpFS(vfs.registry), TmpFS(vfs.registry)
        vfs.mount("/a", outer)
        vfs.mount("/a/b", inner)
        vfs.open("/a/b/f", O_RDWR | O_CREAT)
        assert inner.readdir(inner.root()) == ["f"]

    def test_unmount_root_rejected(self, vfs):
        with pytest.raises(PosixError):
            vfs.unmount("/")

    def test_mount_busy(self, vfs):
        vfs.mount("/m", TmpFS(vfs.registry))
        with pytest.raises(FileExists):
            vfs.mount("/m", TmpFS(vfs.registry))

    def test_tmpfs_crash_loses_data(self, vfs):
        fs = vfs.mounts()["/"]
        f = vfs.open("/f", O_RDWR | O_CREAT)
        f.write(b"volatile")
        fs.crash()
        assert vfs.listdir("/") == []
