"""Unit tests for descriptor tables and open-file descriptions."""

import pytest

from repro.errors import BadFileDescriptor, PosixError
from repro.posix.fd import O_RDONLY, O_RDWR, O_WRONLY, FdTable, OpenFile
from repro.posix.objects import ObjectRegistry


class Recorder(OpenFile):
    """Test double that records its last-close."""

    def __init__(self, flags=O_RDWR):
        super().__init__(ObjectRegistry(), flags=flags)
        self.closed = False

    def on_last_close(self):
        self.closed = True


class TestOpenFile:
    def test_access_mode_flags(self):
        registry = ObjectRegistry()
        assert OpenFile(registry, O_RDONLY).readable
        assert not OpenFile(registry, O_RDONLY).writable
        assert OpenFile(registry, O_WRONLY).writable
        assert not OpenFile(registry, O_WRONLY).readable
        assert OpenFile(registry, O_RDWR).readable and OpenFile(registry, O_RDWR).writable

    def test_default_io_unsupported(self):
        file = OpenFile(ObjectRegistry())
        with pytest.raises(PosixError):
            file.read(1)
        with pytest.raises(PosixError):
            file.write(b"x")
        with pytest.raises(PosixError):
            file.seek(0)

    def test_over_release_asserts(self):
        file = Recorder()
        file.incref()
        file.decref()
        with pytest.raises(AssertionError):
            file.decref()


class TestFdTable:
    def test_lowest_free_allocation(self):
        table = FdTable()
        assert table.install(Recorder()) == 0
        assert table.install(Recorder()) == 1
        table.close(0)
        assert table.install(Recorder()) == 0

    def test_lookup_bad_fd(self):
        with pytest.raises(BadFileDescriptor):
            FdTable().lookup(5)

    def test_close_bad_fd(self):
        with pytest.raises(BadFileDescriptor):
            FdTable().close(5)

    def test_close_releases_on_last(self):
        table = FdTable()
        file = Recorder()
        fd = table.install(file)
        table.close(fd)
        assert file.closed

    def test_dup_shares_description(self):
        table = FdTable()
        file = Recorder()
        fd = table.install(file)
        dup_fd = table.dup(fd)
        assert table.lookup(dup_fd) is file
        table.close(fd)
        assert not file.closed  # dup still holds it
        table.close(dup_fd)
        assert file.closed

    def test_dup2_closes_target(self):
        table = FdTable()
        old = Recorder()
        table.install(old, fd=None)
        victim = Recorder()
        table.install(victim, fd=7)
        table.dup(0, target=7)
        assert victim.closed
        assert table.lookup(7) is table.lookup(0)

    def test_dup2_same_fd_noop(self):
        table = FdTable()
        fd = table.install(Recorder())
        assert table.dup(fd, target=fd) == fd

    def test_shared_offset_through_dup(self):
        table = FdTable()
        file = OpenFile(ObjectRegistry())
        fd = table.install(file)
        dup_fd = table.dup(fd)
        table.lookup(fd).offset = 42
        assert table.lookup(dup_fd).offset == 42

    def test_fork_copy_shares_descriptions(self):
        parent = FdTable()
        file = Recorder()
        fd = parent.install(file, cloexec=True)
        child = parent.fork_copy()
        assert child.lookup(fd) is file
        assert child.entry(fd).close_on_exec
        parent.close(fd)
        assert not file.closed
        child.close(fd)
        assert file.closed

    def test_close_all(self):
        table = FdTable()
        files = [Recorder() for _ in range(3)]
        for file in files:
            table.install(file)
        table.close_all()
        assert all(f.closed for f in files)
        assert len(table) == 0

    def test_install_specific_fd_conflict(self):
        table = FdTable()
        table.install(Recorder(), fd=3)
        with pytest.raises(PosixError):
            table.install(Recorder(), fd=3)

    def test_descriptors_sorted(self):
        table = FdTable()
        table.install(Recorder(), fd=5)
        table.install(Recorder(), fd=1)
        assert table.descriptors() == [1, 5]
