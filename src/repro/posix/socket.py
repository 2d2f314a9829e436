"""Unix-domain sockets (stream) and socket pairs.

Sockets carry two pieces of SLS-relevant state:

- their kernel buffers, checkpointed like any other object state;
- an optional *external consistency hold* installed by the SLS when a
  connection crosses a persistence-group boundary: outbound data is
  buffered in the hold until the covering checkpoint is durable, so a
  peer can never observe state that a crash could roll back
  (paper §3.2; semantics from Rethink the Sync).  ``sls_fdctl``
  removes the hold for latency-sensitive descriptors.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from repro.errors import (
    ConnectionRefused,
    NotConnected,
    PosixError,
    WouldBlock,
)
from repro.posix.fd import O_RDWR, OpenFile
from repro.posix.objects import KernelObject, ObjectRegistry

SO_RCVBUF = 256 * 1024


class ExtConsHold:
    """Holds boundary-crossing transmissions until a checkpoint commits.

    Each entry carries the sequence number assigned at send time.  A
    checkpoint barrier *cuts* the stream (:meth:`mark`); when that
    checkpoint becomes durable only data sent before the cut is
    released — data sent afterwards belongs to the next checkpoint and
    could still be lost in a crash.
    """

    def __init__(self, release: Callable[[bytes], None]):
        self._release = release
        self._held: deque[tuple[int, bytes]] = deque()
        self._next_seq = 0
        self.bytes_held_total = 0

    def __len__(self) -> int:
        return len(self._held)

    @property
    def held_bytes(self) -> int:
        return sum(len(d) for _, d in self._held)

    def add(self, data: bytes) -> None:
        self._held.append((self._next_seq, data))
        self._next_seq += 1
        self.bytes_held_total += len(data)

    def mark(self) -> int:
        """Cut point for a checkpoint barrier: everything below this
        sequence number is covered by that checkpoint."""
        return self._next_seq

    def release_until(self, seq: int) -> int:
        """Deliver data sent before cut ``seq``; returns bytes released."""
        released = 0
        while self._held and self._held[0][0] < seq:
            _, data = self._held.popleft()
            self._release(data)
            released += len(data)
        return released

    def release_all(self) -> int:
        return self.release_until(self._next_seq)

    def discard_all(self) -> int:
        """Drop held data (rollback path); returns bytes discarded."""
        discarded = sum(len(d) for _, d in self._held)
        self._held.clear()
        return discarded


class UnixSocket(KernelObject):
    """One endpoint of a stream Unix-domain socket."""

    otype = "socket"

    def __init__(self, registry: ObjectRegistry):
        super().__init__(registry)
        self.recv_buffer = bytearray()
        self.peer: Optional[UnixSocket] = None
        self.listening = False
        self.bound_name: Optional[str] = None
        self.accept_queue: deque[UnixSocket] = deque()
        self.shutdown_read = False
        self.shutdown_write = False
        #: installed by the SLS for boundary-crossing connections
        self.extcons_hold: Optional[ExtConsHold] = None

    # -- data plane -----------------------------------------------------------

    def send(self, data: bytes) -> int:
        if self.peer is None:
            raise NotConnected("socket not connected")
        if self.shutdown_write:
            raise PosixError("socket shut down for writing", errno="EPIPE")
        room = SO_RCVBUF - len(self.peer.recv_buffer)
        if room <= 0:
            raise WouldBlock("peer receive buffer full")
        accepted = bytes(data[:room])
        if self.extcons_hold is not None:
            self.extcons_hold.add(accepted)
        else:
            self.peer.recv_buffer.extend(accepted)
        return len(accepted)

    def recv(self, nbytes: int) -> bytes:
        if self.shutdown_read:
            return b""
        if not self.recv_buffer:
            if self.peer is None or self.peer.shutdown_write:
                return b""  # orderly EOF
            raise WouldBlock("no data")
        data = bytes(self.recv_buffer[:nbytes])
        del self.recv_buffer[: len(data)]
        return data

    def pending_bytes(self) -> int:
        return len(self.recv_buffer)

    # -- connection management --------------------------------------------------

    def close(self) -> None:
        self.shutdown_read = self.shutdown_write = True
        self.listening = False
        if self.peer is not None:
            self.peer.peer_closed()

    def peer_closed(self) -> None:
        # Peer data already buffered stays readable; new sends fail.
        if self.peer is not None:
            self.peer = None if self.peer.shutdown_write else self.peer


def socketpair(registry: ObjectRegistry) -> tuple[UnixSocket, UnixSocket]:
    """Create a connected pair (``socketpair(2)``)."""
    a, b = UnixSocket(registry), UnixSocket(registry)
    a.peer, b.peer = b, a
    return a, b


class UnixSocketNamespace:
    """The kernel's table of bound Unix socket names.

    A name is taken while an open listener holds it; a listener's
    close frees it.
    """

    def __init__(self, registry: ObjectRegistry):
        self.registry = registry
        self._bound: dict[str, UnixSocket] = {}

    def _taken(self, name: str) -> bool:
        listener = self._bound.get(name)
        return listener is not None and listener.listening

    def bind_listen(self, name: str, backlog: int = 16) -> UnixSocket:
        if self._taken(name):
            raise PosixError(f"address {name!r} in use", errno="EADDRINUSE")
        sock = UnixSocket(self.registry)
        sock.listening = True
        sock.bound_name = name
        self._bound[name] = sock
        return sock

    def rebind(self, listener: UnixSocket) -> None:
        """Give a restored listener back its name, unless an open
        listener holds it (a clone restored beside its original)."""
        assert listener.bound_name is not None
        if not self._taken(listener.bound_name):
            self._bound[listener.bound_name] = listener

    def connect(self, name: str) -> UnixSocket:
        """Connect to a listening name; returns the client endpoint."""
        listener = self._bound.get(name)
        if listener is None or not listener.listening:
            raise ConnectionRefused(f"no listener at {name!r}")
        client, server_side = socketpair(self.registry)
        listener.accept_queue.append(server_side)
        return client

    def accept(self, listener: UnixSocket) -> UnixSocket:
        if not listener.listening:
            raise PosixError("socket is not listening", errno="EINVAL")
        if not listener.accept_queue:
            raise WouldBlock("no pending connections")
        return listener.accept_queue.popleft()


class SocketFile(OpenFile):
    """Descriptor-level wrapper around a socket endpoint."""

    otype = "socketfile"

    def __init__(self, registry: ObjectRegistry, socket: UnixSocket):
        super().__init__(registry, flags=O_RDWR)
        self.socket = socket

    def read(self, nbytes: int) -> bytes:
        return self.socket.recv(nbytes)

    def write(self, data: bytes) -> int:
        return self.socket.send(data)

    def on_last_close(self) -> None:
        self.socket.close()


def held_sockets(procs: Iterable) -> dict[int, UnixSocket]:
    """The sockets the descriptors of ``procs`` hold, by koid."""
    sockets: dict[int, UnixSocket] = {}
    for proc in procs:
        for _fd, entry in proc.fdtable.items():
            if isinstance(entry.file, SocketFile):
                sockets[entry.file.socket.koid] = entry.file.socket
    return sockets
