"""The Aurora file system (SLSFS): a file API into the object store.

SLSFS stores file data as deduplicated pages in the object store and
its namespace/inode metadata as store snapshots, giving it properties
a classic POSIX filesystem lacks (paper §3):

- snapshots at checkpoint rate (the orchestrator calls :meth:`sync`
  per checkpoint; the COW layout makes each one a small delta);
- zero-copy file clones sharing all data pages;
- crash-safe anonymous files via the persistent open-refcount
  (:mod:`repro.slsfs.anonfile`).

It implements the same :class:`~repro.posix.vnode.FileSystem`
interface as tmpfs, so processes can be pointed at it transparently
through the VFS mount table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    ImageFormatError,
    IsADirectory,
    NoSuchFile,
    NotADirectory,
)
from repro.fault import names as fault_names
from repro.objstore.image import read_image, write_image
from repro.objstore.record import shaped
from repro.objstore.snapshot import Snapshot
from repro.objstore.store import ObjectStore, PageRef
from repro.posix.vnode import FileSystem, Vnode, VnodeType
from repro.slsfs.anonfile import OrphanTable
from repro.units import PAGE_SIZE

#: ino of the filesystem root
ROOT_INO = 1
#: the :class:`Inode` fields a sync persists, with their types (its
#: clean pages are the image's slot map, dirty ones were just flushed)
_INODE_FIELDS = {"ino": int, "vtype": str, "nlink": int, "size": int,
                 "mode": int, "open_refs": int, "symlink_target": str,
                 "entries": dict}


@dataclass
class Inode:
    """In-core inode: metadata + clean page refs + dirty overlay."""

    ino: int
    vtype: str
    nlink: int = 1
    size: int = 0
    mode: int = 0o644
    #: persisted open reference count (the anonymous-file fix)
    open_refs: int = 0
    #: page index -> PageRef for clean (synced) content
    pages: dict[int, PageRef] = field(default_factory=dict)
    #: page index -> bytes for content written since the last sync
    dirty: dict[int, bytes] = field(default_factory=dict)
    #: directory entries (directories only): name -> ino
    entries: dict[str, int] = field(default_factory=dict)
    #: symlink target path (symlinks only)
    symlink_target: str = ""


class SlsFS(FileSystem):
    """The Aurora file system over one object store."""

    name = "slsfs"

    def __init__(self, store: ObjectStore):
        self.store = store
        self._ino = itertools.count(ROOT_INO + 1)
        self._inodes: dict[int, Inode] = {}
        self._vnodes: dict[int, Vnode] = {}
        self.orphans = OrphanTable()
        self.snapshots_taken = 0
        root = Inode(ino=ROOT_INO, vtype="dir", nlink=2, mode=0o755)
        self._inodes[ROOT_INO] = root
        self._root_vnode = self._make_vnode(root)

    # -- vnode plumbing ------------------------------------------------------

    def _make_vnode(self, inode: Inode) -> Vnode:
        vnode = self._vnodes.get(inode.ino)
        if vnode is None:
            vtype = {
                "dir": VnodeType.DIRECTORY,
                "lnk": VnodeType.SYMLINK,
            }.get(inode.vtype, VnodeType.REGULAR)
            vnode = Vnode(self, ino=inode.ino, vtype=vtype)
            vnode.nlink = inode.nlink
            vnode.size = inode.size
            vnode.mode = inode.mode
            self._vnodes[inode.ino] = vnode
        return vnode

    def _inode(self, vnode: Vnode) -> Inode:
        inode = self._inodes.get(vnode.ino)
        if inode is None:
            raise NoSuchFile(f"stale vnode ino {vnode.ino}")
        return inode

    def root(self) -> Vnode:
        return self._root_vnode

    # -- namespace ops ------------------------------------------------------------

    def lookup(self, dvnode: Vnode, name: str) -> Vnode:
        dinode = self._inode(dvnode)
        if dinode.vtype != "dir":
            raise NotADirectory(f"ino {dinode.ino}")
        ino = dinode.entries.get(name)
        if ino is None:
            raise NoSuchFile(f"no entry {name!r}")
        return self._make_vnode(self._inodes[ino])

    def create(self, dvnode: Vnode, name: str, vtype: VnodeType) -> Vnode:
        dinode = self._inode(dvnode)
        if dinode.vtype != "dir":
            raise NotADirectory(f"ino {dinode.ino}")
        if name in dinode.entries:
            raise FileExists(f"entry {name!r} exists")
        kind = "dir" if vtype == VnodeType.DIRECTORY else "reg"
        inode = Inode(
            ino=next(self._ino),
            vtype=kind,
            nlink=2 if kind == "dir" else 1,
            mode=0o755 if kind == "dir" else 0o644,
        )
        self._inodes[inode.ino] = inode
        dinode.entries[name] = inode.ino
        if kind == "dir":
            dinode.nlink += 1
            self._sync_vnode_meta(dinode)
        return self._make_vnode(inode)

    def link(self, dvnode: Vnode, name: str, vnode: Vnode) -> None:
        dinode = self._inode(dvnode)
        target = self._inode(vnode)
        if target.vtype == "dir":
            raise IsADirectory("cannot hard link a directory")
        if name in dinode.entries:
            raise FileExists(f"entry {name!r} exists")
        dinode.entries[name] = target.ino
        target.nlink += 1
        vnode.nlink = target.nlink

    def unlink(self, dvnode: Vnode, name: str) -> Vnode:
        dinode = self._inode(dvnode)
        ino = dinode.entries.get(name)
        if ino is None:
            raise NoSuchFile(f"no entry {name!r}")
        inode = self._inodes[ino]
        vnode = self._make_vnode(inode)
        if inode.vtype == "dir":
            if inode.entries:
                raise DirectoryNotEmpty(f"{name!r} not empty")
            dinode.nlink -= 1
            inode.nlink -= 2
        else:
            inode.nlink -= 1
        del dinode.entries[name]
        vnode.nlink = max(0, inode.nlink)
        if inode.nlink <= 0:
            if vnode.open_refs > 0:
                # The paper's edge case: keep it alive via the
                # persistent open reference count.
                self.orphans.note_unlinked_open(ino, vnode.open_refs)
            else:
                self._reclaim(inode)
        return vnode

    def readdir(self, dvnode: Vnode) -> list[str]:
        dinode = self._inode(dvnode)
        if dinode.vtype != "dir":
            raise NotADirectory(f"ino {dinode.ino}")
        return sorted(dinode.entries)

    def _reclaim(self, inode: Inode) -> None:
        self._inodes.pop(inode.ino, None)
        self._vnodes.pop(inode.ino, None)

    def _sync_vnode_meta(self, inode: Inode) -> None:
        vnode = self._vnodes.get(inode.ino)
        if vnode is not None:
            vnode.nlink = inode.nlink
            vnode.size = inode.size

    # -- data ops -------------------------------------------------------------------

    def read(self, vnode: Vnode, offset: int, nbytes: int) -> bytes:
        inode = self._inode(vnode)
        if inode.vtype == "dir":
            raise IsADirectory("read of a directory")
        nbytes = max(0, min(nbytes, inode.size - offset))
        if nbytes == 0:
            return b""
        out = bytearray()
        pos = offset
        while len(out) < nbytes:
            pindex, within = divmod(pos, PAGE_SIZE)
            chunk = min(PAGE_SIZE - within, nbytes - len(out))
            content = self._page_content(inode, pindex)
            piece = content[within : within + chunk]
            out += piece + bytes(chunk - len(piece))
            pos += chunk
        return bytes(out)

    def _page_content(self, inode: Inode, pindex: int) -> bytes:
        dirty = inode.dirty.get(pindex)
        if dirty is not None:
            return dirty
        ref = inode.pages.get(pindex)
        if ref is None:
            return b""
        return self.store.read_page(ref)

    def write(self, vnode: Vnode, offset: int, data: bytes) -> int:
        inode = self._inode(vnode)
        if inode.vtype == "dir":
            raise IsADirectory("write to a directory")
        pos = offset
        view = memoryview(bytes(data))
        while view.nbytes:
            pindex, within = divmod(pos, PAGE_SIZE)
            chunk = min(PAGE_SIZE - within, view.nbytes)
            if within == 0 and chunk == PAGE_SIZE:
                inode.dirty[pindex] = bytes(view[:chunk])
            else:
                current = bytearray(self._page_content(inode, pindex))
                if len(current) < within + chunk:
                    current.extend(bytes(within + chunk - len(current)))
                current[within : within + chunk] = view[:chunk]
                inode.dirty[pindex] = bytes(current)
            view = view[chunk:]
            pos += chunk
        inode.size = max(inode.size, offset + len(data))
        self._sync_vnode_meta(inode)
        return len(data)

    def truncate(self, vnode: Vnode, size: int) -> None:
        inode = self._inode(vnode)
        if size < inode.size:
            keep = (size + PAGE_SIZE - 1) // PAGE_SIZE
            inode.pages = {p: r for p, r in inode.pages.items() if p < keep}
            inode.dirty = {p: d for p, d in inode.dirty.items() if p < keep}
            if size % PAGE_SIZE:
                pindex = size // PAGE_SIZE
                content = self._page_content(inode, pindex)[: size % PAGE_SIZE]
                inode.dirty[pindex] = content
        inode.size = size
        self._sync_vnode_meta(inode)

    def vnode_released(self, vnode: Vnode) -> None:
        inode = self._inodes.get(vnode.ino)
        if inode is None:
            return
        inode.open_refs = 0
        if self.orphans.is_orphan(vnode.ino):
            self.orphans.refs.pop(vnode.ino, None)
            self.orphans.reclaimed_total += 1
            self._reclaim(inode)
        elif inode.nlink <= 0:
            self._reclaim(inode)

    def symlink(self, dvnode: Vnode, name: str, target: str) -> Vnode:
        dinode = self._inode(dvnode)
        if dinode.vtype != "dir":
            raise NotADirectory(f"ino {dinode.ino}")
        if name in dinode.entries:
            raise FileExists(f"entry {name!r} exists")
        inode = Inode(
            ino=next(self._ino), vtype="lnk", nlink=1,
            size=len(target), symlink_target=target,
        )
        self._inodes[inode.ino] = inode
        dinode.entries[name] = inode.ino
        return self._make_vnode(inode)

    def readlink(self, vnode: Vnode) -> str:
        inode = self._inode(vnode)
        if inode.vtype != "lnk":
            from repro.errors import PosixError

            raise PosixError("not a symlink", errno="EINVAL")
        return inode.symlink_target

    # -- zero-copy clones --------------------------------------------------------------

    def clone_file(self, src_path_vnode: Vnode, dvnode: Vnode, name: str) -> Vnode:
        """Clone a file without copying data (shared page refs)."""
        src = self._inode(src_path_vnode)
        if src.vtype == "dir":
            raise IsADirectory("clone of a directory")
        dinode = self._inode(dvnode)
        if name in dinode.entries:
            raise FileExists(f"entry {name!r} exists")
        clone = Inode(
            ino=next(self._ino),
            vtype="reg",
            nlink=1,
            size=src.size,
            mode=src.mode,
            pages=dict(src.pages),
            dirty=dict(src.dirty),
        )
        self._inodes[clone.ino] = clone
        dinode.entries[name] = clone.ino
        return self._make_vnode(clone)

    # -- persistence: sync / snapshot / recover ---------------------------------------------

    def _flush_dirty(self) -> int:
        """Write dirty pages to the store (deduplicated); returns count."""
        flushed = 0
        for inode in self._inodes.values():
            for pindex, content in sorted(inode.dirty.items()):
                inode.pages[pindex] = self.store.write_page(content)
                flushed += 1
            inode.dirty.clear()
        return flushed

    def _capture_open_refs(self) -> None:
        for ino, vnode in self._vnodes.items():
            inode = self._inodes.get(ino)
            if inode is not None:
                inode.open_refs = vnode.open_refs

    def _encode_meta(self) -> dict:
        self._capture_open_refs()
        return {
            "next_ino": self._peek_ino(),
            "orphans": self.orphans.encode(),
            "inodes": [
                {name: getattr(inode, name) for name in _INODE_FIELDS}
                for inode in self._inodes.values()
            ],
        }

    def _peek_ino(self) -> int:
        probe = next(self._ino)
        self._ino = itertools.chain([probe], self._ino)  # push back
        return probe

    def sync(self, name: Optional[str] = None) -> Snapshot:
        """Flush dirty data + metadata as one store snapshot.

        Called by the orchestrator at checkpoint time so filesystem and
        process state commit together ("the object store simplifies
        synchronizing memory and file system checkpoints").
        """
        if self.store.faults is not None:
            self.store._failpoint(
                fault_names.FP_FS_SYNC,
                "power cut during slsfs sync", "injected slsfs sync failure",
                fs=self.name,
            )
        self._flush_dirty()
        self.snapshots_taken += 1
        snapshot, _lineage = write_image(
            self.store,
            name=name or f"slsfs@{self.snapshots_taken}",
            meta={"fs": "slsfs"},
            value=self._encode_meta(),
            page_map={inode.ino: inode.pages for inode in self._inodes.values()},
            oid=ROOT_INO,
        )
        return snapshot

    @classmethod
    def recover(cls, store: ObjectStore, snapshot: Optional[Snapshot] = None) -> "SlsFS":
        """Rebuild the filesystem from its latest (or a given) snapshot.

        Files with ``nlink == 0`` but a positive persisted open
        refcount are retained as orphans — the anonymous-file fix.
        """
        if snapshot is None:
            candidates = [
                s for s in store.snapshots() if s.name.startswith("slsfs@")
            ]
            if not candidates:
                return cls(store)
            snapshot = max(candidates, key=lambda s: s.snap_id)
        data, page_map = read_image(store, snapshot)
        # The record checksummed; that it is *this* filesystem's
        # metadata (what _encode_meta writes) is checked here, once.
        if not (
            shaped(data, {"next_ino": int, "orphans": dict, "inodes": list})
            and all(isinstance(k, str) and k.isdigit() for k in data["orphans"])
            and all(shaped(entry, _INODE_FIELDS) for entry in data["inodes"])
        ):
            raise ImageFormatError(
                f"snapshot {snapshot.name!r} does not hold SLSFS metadata"
            )
        fs = cls(store)
        fs._inodes.clear()
        fs._vnodes.clear()
        for entry in data["inodes"]:
            fs._inodes[entry["ino"]] = Inode(
                **{name: entry[name] for name in _INODE_FIELDS},
                pages=page_map.get(entry["ino"], {}),
            )
        fs._ino = itertools.count(data["next_ino"])
        fs.orphans = OrphanTable.decode(data["orphans"])
        root = fs._inodes.get(ROOT_INO)
        if root is None:
            raise NoSuchFile("snapshot has no root inode")
        fs._root_vnode = fs._make_vnode(root)
        # Restore vnode-level open refcounts for orphans so the VFS
        # keeps them alive until the restored app closes them.
        for ino, count in fs.orphans.refs.items():
            inode = fs._inodes.get(ino)
            if inode is not None:
                vnode = fs._make_vnode(inode)
                vnode.open_refs = count
        return fs
