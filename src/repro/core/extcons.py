"""External consistency (paper §3.2).

"Any data transmitted on a file descriptor are buffered until the
corresponding checkpoint is persisted on disk to prevent other
machines from seeing state that could be lost in a crash."

The manager scans a group's descriptor tables for sockets whose peer
lives *outside* the group (another group, the host, or a remote) and
installs an :class:`~repro.posix.socket.ExtConsHold` on them.  When a
checkpoint becomes durable, all data held *before* that checkpoint's
barrier is released to the peers; on rollback the held data is
discarded — the peer never saw state that no longer exists.

``sls_fdctl`` disables the hold per descriptor for applications that
tolerate observing rollback-able state ("to improve latency").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.posix.socket import ExtConsHold, UnixSocket, held_sockets

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.group import PersistenceGroup


class ExternalConsistency:
    """Per-group external-consistency state."""

    def __init__(self, group: "PersistenceGroup"):
        self.group = group
        #: socket koid -> hold we installed
        self._holds: dict[int, ExtConsHold] = {}
        self.bytes_released = 0
        self.bytes_discarded = 0

    # -- boundary detection --------------------------------------------------

    def refresh(self) -> int:
        """(Re)install holds on boundary-crossing sockets.

        Called when the group is persisted and after membership
        changes.  Returns the number of sockets currently held.
        """
        ours = held_sockets(self.group.processes())
        for koid, sock in ours.items():
            crosses = sock.peer is not None and sock.peer.koid not in ours
            disabled = koid in self.group.extcons_disabled
            if crosses and not disabled:
                if sock.extcons_hold is None:
                    peer = sock.peer
                    hold = ExtConsHold(release=peer.recv_buffer.extend)
                    sock.extcons_hold = hold
                    self._holds[koid] = hold
            elif sock.extcons_hold is not None and koid in self._holds:
                # No longer crossing (or fdctl-disabled): release
                # everything held and remove the hold.
                self.bytes_released += sock.extcons_hold.release_all()
                sock.extcons_hold = None
                del self._holds[koid]
        # Forget holds for sockets that disappeared.
        for koid in list(self._holds):
            if koid not in ours:
                del self._holds[koid]
        return len(self._holds)

    def set_enabled(self, sock: UnixSocket, enabled: bool) -> None:
        """``sls_fdctl`` backend: toggle external consistency."""
        if enabled:
            self.group.extcons_disabled.discard(sock.koid)
        else:
            self.group.extcons_disabled.add(sock.koid)
        self.refresh()

    # -- checkpoint integration ------------------------------------------------

    def mark_barrier(self) -> dict[int, int]:
        """Record each hold's cut at a checkpoint barrier."""
        return {koid: hold.mark() for koid, hold in self._holds.items()}

    def on_checkpoint_durable(self, cuts: dict[int, int]) -> int:
        """Release data sent before the now-durable barrier's cuts."""
        released = 0
        for koid, hold in self._holds.items():
            seq = cuts.get(koid)
            if seq is None:
                continue  # hold installed after the barrier; nothing covered
            released += hold.release_until(seq)
        self.bytes_released += released
        return released

    def on_rollback(self) -> int:
        """Discard held data: the state that produced it is gone."""
        discarded = 0
        for hold in self._holds.values():
            discarded += hold.discard_all()
        self.bytes_discarded += discarded
        return discarded

    def held_bytes(self) -> int:
        return sum(h.held_bytes for h in self._holds.values())

    def held_sockets(self) -> int:
        return len(self._holds)
