"""The VFS layer: vnodes, filesystems, path resolution.

The kernel sees files through vnodes, so checkpoints capture *vnodes*
(including unlinked-but-open ones) rather than path names.  Two
filesystems implement the interface: the in-memory :class:`TmpFS`
here, and the persistent Aurora file system in :mod:`repro.slsfs.fs`
built over the object store.
"""

from __future__ import annotations

import abc
import enum
import itertools
from typing import Optional

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    IsADirectory,
    NoSuchFile,
    NotADirectory,
    PosixError,
)
from repro.posix.fd import O_APPEND, O_CREAT, O_EXCL, O_TRUNC, OpenFile
from repro.posix.objects import KernelObject, ObjectRegistry


class VnodeType(enum.Enum):
    REGULAR = "reg"
    DIRECTORY = "dir"
    SYMLINK = "lnk"


class Vnode(KernelObject):
    """An in-core file: identity plus link/open accounting.

    Content storage belongs to the owning filesystem; the vnode itself
    is the object the checkpoint serializes (ino, type, nlink, and —
    critically for anonymous files — the open reference count).
    """

    otype = "vnode"

    def __init__(self, fs: "FileSystem", ino: int, vtype: VnodeType):
        super().__init__(fs.registry)
        self.fs = fs
        self.ino = ino
        self.vtype = vtype
        self.nlink = 0
        #: open file descriptions referencing this vnode
        self.open_refs = 0
        self.size = 0
        self.mode = 0o644 if vtype == VnodeType.REGULAR else 0o755

    @property
    def is_dir(self) -> bool:
        return self.vtype == VnodeType.DIRECTORY

    @property
    def anonymous(self) -> bool:
        """Unlinked but still open — the paper's POSIX edge case."""
        return self.nlink == 0 and self.open_refs > 0

    def __repr__(self) -> str:
        return (
            f"<Vnode ino={self.ino} {self.vtype.value} nlink={self.nlink}"
            f" open={self.open_refs}>"
        )


class FileSystem(abc.ABC):
    """What a filesystem must provide to the VFS."""

    name = "fs"
    #: the kernel registry that numbers this filesystem's vnodes
    registry: ObjectRegistry

    @abc.abstractmethod
    def root(self) -> Vnode: ...

    @abc.abstractmethod
    def lookup(self, dvnode: Vnode, name: str) -> Vnode: ...

    @abc.abstractmethod
    def create(self, dvnode: Vnode, name: str, vtype: VnodeType) -> Vnode: ...

    @abc.abstractmethod
    def unlink(self, dvnode: Vnode, name: str) -> Vnode: ...

    @abc.abstractmethod
    def readdir(self, dvnode: Vnode) -> list[str]: ...

    @abc.abstractmethod
    def read(self, vnode: Vnode, offset: int, nbytes: int) -> bytes: ...

    @abc.abstractmethod
    def write(self, vnode: Vnode, offset: int, data: bytes) -> int: ...

    @abc.abstractmethod
    def truncate(self, vnode: Vnode, size: int) -> None: ...

    def vnode_released(self, vnode: Vnode) -> None:
        """Last open reference dropped; reclaim if also unlinked."""

    def rename(self, src_dir: Vnode, src_name: str,
               dst_dir: Vnode, dst_name: str) -> Vnode:
        """Atomically move an entry (default: link + unlink)."""
        vnode = self.lookup(src_dir, src_name)
        if vnode.is_dir:
            raise IsADirectory("directory rename not supported")
        link = getattr(self, "link", None)
        if link is None:
            raise PosixError("filesystem does not support rename",
                             errno="EOPNOTSUPP")
        try:
            existing = self.lookup(dst_dir, dst_name)
        except NoSuchFile:
            existing = None
        if existing is not None:
            self.unlink(dst_dir, dst_name)
        link(dst_dir, dst_name, vnode)
        self.unlink(src_dir, src_name)
        return vnode

    def symlink(self, dvnode: Vnode, name: str, target: str) -> Vnode:
        raise PosixError("filesystem does not support symlinks",
                         errno="EOPNOTSUPP")

    def readlink(self, vnode: Vnode) -> str:
        raise PosixError("not a symlink", errno="EINVAL")


class TmpFS(FileSystem):
    """RAM-backed filesystem (FreeBSD tmpfs stand-in).

    Volatile: contents vanish on a simulated crash — which is exactly
    why checkpoints must carry vnode state for anonymous files.
    """

    name = "tmpfs"

    def __init__(self, registry: ObjectRegistry):
        self.registry = registry
        self._ino = itertools.count(2)
        self._data: dict[int, bytearray] = {}
        self._dirs: dict[int, dict[str, Vnode]] = {}
        self._symlinks: dict[int, str] = {}
        self._root = Vnode(self, ino=1, vtype=VnodeType.DIRECTORY)
        self._root.nlink = 2
        self._dirs[1] = {}

    def root(self) -> Vnode:
        return self._root

    def _dir_entries(self, dvnode: Vnode) -> dict[str, Vnode]:
        if not dvnode.is_dir:
            raise NotADirectory(f"ino {dvnode.ino} is not a directory")
        return self._dirs[dvnode.ino]

    def lookup(self, dvnode: Vnode, name: str) -> Vnode:
        entries = self._dir_entries(dvnode)
        vnode = entries.get(name)
        if vnode is None:
            raise NoSuchFile(f"no entry {name!r}")
        return vnode

    def create(self, dvnode: Vnode, name: str, vtype: VnodeType) -> Vnode:
        entries = self._dir_entries(dvnode)
        if name in entries:
            raise FileExists(f"entry {name!r} exists")
        vnode = Vnode(self, ino=next(self._ino), vtype=vtype)
        vnode.nlink = 2 if vtype == VnodeType.DIRECTORY else 1
        if vtype == VnodeType.DIRECTORY:
            self._dirs[vnode.ino] = {}
            dvnode.nlink += 1
        else:
            self._data[vnode.ino] = bytearray()
        entries[name] = vnode
        return vnode

    def link(self, dvnode: Vnode, name: str, vnode: Vnode) -> None:
        """Hard link ``vnode`` as ``name`` in ``dvnode``."""
        if vnode.is_dir:
            raise IsADirectory("cannot hard link a directory")
        entries = self._dir_entries(dvnode)
        if name in entries:
            raise FileExists(f"entry {name!r} exists")
        entries[name] = vnode
        vnode.nlink += 1

    def unlink(self, dvnode: Vnode, name: str) -> Vnode:
        entries = self._dir_entries(dvnode)
        vnode = entries.get(name)
        if vnode is None:
            raise NoSuchFile(f"no entry {name!r}")
        if vnode.is_dir:
            if self._dirs.get(vnode.ino):
                raise DirectoryNotEmpty(f"{name!r} not empty")
            dvnode.nlink -= 1
            vnode.nlink -= 2
            self._dirs.pop(vnode.ino, None)
        else:
            vnode.nlink -= 1
        del entries[name]
        if vnode.nlink <= 0 and vnode.open_refs == 0:
            self._reclaim(vnode)
        return vnode

    def readdir(self, dvnode: Vnode) -> list[str]:
        return sorted(self._dir_entries(dvnode))

    def read(self, vnode: Vnode, offset: int, nbytes: int) -> bytes:
        if vnode.is_dir:
            raise IsADirectory("read of a directory")
        data = self._data.get(vnode.ino, bytearray())
        return bytes(data[offset : offset + nbytes])

    def write(self, vnode: Vnode, offset: int, data: bytes) -> int:
        if vnode.is_dir:
            raise IsADirectory("write to a directory")
        buf = self._data.setdefault(vnode.ino, bytearray())
        if offset > len(buf):
            buf.extend(b"\x00" * (offset - len(buf)))
        buf[offset : offset + len(data)] = data
        vnode.size = len(buf)
        return len(data)

    def truncate(self, vnode: Vnode, size: int) -> None:
        buf = self._data.setdefault(vnode.ino, bytearray())
        if size < len(buf):
            del buf[size:]
        else:
            buf.extend(b"\x00" * (size - len(buf)))
        vnode.size = size

    def vnode_released(self, vnode: Vnode) -> None:
        if vnode.nlink <= 0:
            self._reclaim(vnode)

    def symlink(self, dvnode: Vnode, name: str, target: str) -> Vnode:
        entries = self._dir_entries(dvnode)
        if name in entries:
            raise FileExists(f"entry {name!r} exists")
        vnode = Vnode(self, ino=next(self._ino), vtype=VnodeType.SYMLINK)
        vnode.nlink = 1
        vnode.size = len(target)
        self._symlinks[vnode.ino] = target
        entries[name] = vnode
        return vnode

    def readlink(self, vnode: Vnode) -> str:
        target = self._symlinks.get(vnode.ino)
        if target is None:
            raise PosixError("not a symlink", errno="EINVAL")
        return target

    def _reclaim(self, vnode: Vnode) -> None:
        self._data.pop(vnode.ino, None)
        self._symlinks.pop(vnode.ino, None)

    def crash(self) -> None:
        """A tmpfs does not survive power loss."""
        self._data.clear()
        self._dirs = {1: {}}
        self._symlinks.clear()


class VnodeFile(OpenFile):
    """Open-file description over a vnode."""

    otype = "vnodefile"

    def __init__(self, registry: ObjectRegistry, vnode: Vnode, flags: int,
                 path: str = ""):
        super().__init__(registry, flags=flags)
        self.vnode = vnode
        #: the path this description was opened by; checkpoints record
        #: it so restores can re-link (or recreate) the file.  Empty
        #: for anonymous restores.
        self.path = path
        vnode.open_refs += 1

    def read(self, nbytes: int) -> bytes:
        if not self.readable:
            raise PosixError("file not open for reading", errno="EBADF")
        data = self.vnode.fs.read(self.vnode, self.offset, nbytes)
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        if not self.writable:
            raise PosixError("file not open for writing", errno="EBADF")
        if self.flags & O_APPEND:
            self.offset = self.vnode.size
        written = self.vnode.fs.write(self.vnode, self.offset, data)
        self.offset += written
        return written

    def seek(self, offset: int) -> int:
        if offset < 0:
            raise PosixError("negative seek", errno="EINVAL")
        self.offset = offset
        return offset

    def on_last_close(self) -> None:
        self.vnode.open_refs -= 1
        if self.vnode.open_refs == 0:
            self.vnode.fs.vnode_released(self.vnode)


class VfsNamespace:
    """Mount table + path walking."""

    def __init__(self, rootfs: FileSystem):
        #: the root filesystem's kernel registry, which also numbers
        #: the open files this namespace hands out
        self.registry = rootfs.registry
        self._mounts: dict[str, FileSystem] = {"/": rootfs}

    def mount(self, path: str, fs: FileSystem) -> None:
        path = self._normalize(path)
        if path in self._mounts:
            raise FileExists(f"mount point {path} busy")
        self._mounts[path] = fs

    def unmount(self, path: str) -> None:
        path = self._normalize(path)
        if path == "/":
            raise PosixError("cannot unmount root", errno="EBUSY")
        if self._mounts.pop(path, None) is None:
            raise NoSuchFile(f"nothing mounted at {path}")

    def mounts(self) -> dict[str, FileSystem]:
        return dict(self._mounts)

    @staticmethod
    def _normalize(path: str) -> str:
        if not path.startswith("/"):
            raise PosixError(f"path must be absolute: {path!r}", errno="EINVAL")
        parts = [p for p in path.split("/") if p and p != "."]
        out: list[str] = []
        for part in parts:
            if part == "..":
                if out:
                    out.pop()
            else:
                out.append(part)
        return "/" + "/".join(out)

    def _fs_for(self, path: str) -> tuple[FileSystem, str]:
        """Longest-prefix mount match; returns (fs, fs-relative path)."""
        best = "/"
        for mount in self._mounts:
            if path == mount or path.startswith(mount.rstrip("/") + "/"):
                if len(mount) > len(best):
                    best = mount
        rel = path[len(best):].lstrip("/")
        return self._mounts[best], rel

    def resolve(self, path: str, parent: bool = False) -> tuple[FileSystem, Vnode, str]:
        """Walk ``path``; returns (fs, vnode, final-name).

        With ``parent`` the walk stops at the parent directory and
        returns it plus the final component (for create/unlink).
        """
        path = self._normalize(path)
        fs, rel = self._fs_for(path)
        vnode = fs.root()
        parts = [p for p in rel.split("/") if p]
        if parent:
            if not parts:
                raise PosixError("path resolves to a mount root", errno="EINVAL")
            *dirs, final = parts
        else:
            dirs, final = parts, ""
        for name in dirs:
            vnode = fs.lookup(vnode, name)
            if not vnode.is_dir:
                raise NotADirectory(f"{name!r} in {path!r}")
        if not parent and parts:
            final = ""
        return fs, vnode, final

    # -- symlink expansion ------------------------------------------------------

    def _expand(self, path: str, depth: int = 0) -> str:
        """Resolve symlinks in every component of ``path``.

        Symlink targets are absolute VFS paths; expansion restarts the
        walk with the target plus the remaining components, bounded to
        8 hops (ELOOP beyond).
        """
        if depth > 8:
            raise PosixError(f"too many symlinks in {path!r}", errno="ELOOP")
        path = self._normalize(path)
        fs, rel = self._fs_for(path)
        mount_prefix = path[: len(path) - len(rel)] if rel else path
        vnode = fs.root()
        parts = [p for p in rel.split("/") if p]
        for i, name in enumerate(parts):
            try:
                vnode = fs.lookup(vnode, name)
            except (NoSuchFile, NotADirectory):
                return path  # let the caller produce the right errno
            if vnode.vtype == VnodeType.SYMLINK:
                target = fs.readlink(vnode)
                rest = "/".join(parts[i + 1:])
                rebased = target if target.startswith("/") else (
                    mount_prefix.rstrip("/") + "/"
                    + "/".join(parts[:i]) + "/" + target
                )
                combined = rebased.rstrip("/") + ("/" + rest if rest else "")
                return self._expand(combined, depth + 1)
        return path

    # -- file-level convenience (used by the syscall layer) ------------------

    def open(self, path: str, flags: int) -> VnodeFile:
        path = self._expand(path)
        fs, parent_vnode, name = self.resolve(path, parent=True)
        try:
            vnode = fs.lookup(parent_vnode, name)
            if flags & O_CREAT and flags & O_EXCL:
                raise FileExists(f"{path} exists")
        except NoSuchFile:
            if not flags & O_CREAT:
                raise
            vnode = fs.create(parent_vnode, name, VnodeType.REGULAR)
        if flags & O_TRUNC and not vnode.is_dir:
            fs.truncate(vnode, 0)
        return VnodeFile(self.registry, vnode, flags, path=path)

    def mkdir(self, path: str) -> Vnode:
        fs, parent_vnode, name = self.resolve(path, parent=True)
        return fs.create(parent_vnode, name, VnodeType.DIRECTORY)

    def unlink(self, path: str) -> Vnode:
        fs, parent_vnode, name = self.resolve(path, parent=True)
        return fs.unlink(parent_vnode, name)

    def listdir(self, path: str) -> list[str]:
        path = self._normalize(path)
        fs, rel = self._fs_for(path)
        vnode = fs.root()
        for name in (p for p in rel.split("/") if p):
            vnode = fs.lookup(vnode, name)
        return fs.readdir(vnode)

    def stat(self, path: str, follow: bool = True) -> Vnode:
        path = self._expand(path) if follow else self._normalize(path)
        fs, rel = self._fs_for(path)
        vnode = fs.root()
        for name in (p for p in rel.split("/") if p):
            vnode = fs.lookup(vnode, name)
        return vnode

    def symlink(self, target: str, linkpath: str) -> Vnode:
        fs, parent_vnode, name = self.resolve(linkpath, parent=True)
        return fs.symlink(parent_vnode, name, target)

    def readlink(self, path: str) -> str:
        vnode = self.stat(path, follow=False)
        return vnode.fs.readlink(vnode)

    def rename(self, src: str, dst: str) -> Vnode:
        src_fs, src_parent, src_name = self.resolve(src, parent=True)
        dst_fs, dst_parent, dst_name = self.resolve(dst, parent=True)
        if src_fs is not dst_fs:
            raise PosixError("cross-filesystem rename", errno="EXDEV")
        return src_fs.rename(src_parent, src_name, dst_parent, dst_name)
