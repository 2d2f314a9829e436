"""Anonymous (unlinked-but-open) file handling.

"An example of an edge case is unlinked but open files (i.e.,
anonymous files).  In POSIX file systems, these files would be
reclaimed after a crash, preventing application restoration.  We solve
this by maintaining an on-disk open reference count storing the number
of persistent virtual file system vnodes." (paper §3)

The :class:`OrphanTable` tracks inodes with ``nlink == 0`` whose
persisted ``open_refs`` is still positive.  After a crash + recovery,
those inodes are *kept*; they are reclaimed only when the restored
application drops the last open reference (or when the covering
persistence group is destroyed).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OrphanTable:
    """Inodes kept alive solely by persistent open references."""

    #: ino -> persisted open refcount
    refs: dict[int, int] = field(default_factory=dict)
    reclaimed_total: int = 0

    def note_unlinked_open(self, ino: int, open_refs: int) -> None:
        if open_refs <= 0:
            raise ValueError("orphan must have positive open refs")
        self.refs[ino] = open_refs

    def is_orphan(self, ino: int) -> bool:
        return ino in self.refs

    def orphans(self) -> list[int]:
        return sorted(self.refs)

    def encode(self) -> dict:
        return {str(ino): count for ino, count in self.refs.items()}

    @classmethod
    def decode(cls, data: dict) -> "OrphanTable":
        table = cls()
        table.refs = {int(ino): count for ino, count in data.items()}
        return table
