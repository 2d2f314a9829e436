"""Serializers for descriptors, files, pipes, sockets, and SysV IPC.

Sharing is preserved exactly: an open-file description dup'ed into
five descriptors across two processes serializes once and is re-linked
five times on restore; socket peers are reconnected through deferred
fixups once both endpoints exist.
"""

from __future__ import annotations

from repro.errors import NoSuchFile, SlsError
from repro.posix.fd import O_CREAT, O_RDWR, FdTable
from repro.posix.msgqueue import MessageQueue
from repro.posix.pipe import Pipe, PipeEnd
from repro.posix.shm import SharedMemorySegment
from repro.posix.socket import SocketFile, UnixSocket, held_sockets
from repro.posix.vnode import Vnode, VnodeFile, VnodeType
from repro.serial.registry import (
    RestoreContext,
    SerialContext,
    Serializer,
    register,
    serializer_for,
)


@register
class VnodeFileSerializer(Serializer):
    otype = "vnodefile"

    def serialize(self, obj: VnodeFile, ctx: SerialContext) -> dict:
        vnode = obj.vnode
        if ctx.mark(vnode):
            ctx.vnodes[vnode.ino] = vnode
            if obj.path:
                ctx.vnode_paths[vnode.ino] = obj.path
        elif obj.path and vnode.ino not in ctx.vnode_paths:
            ctx.vnode_paths[vnode.ino] = obj.path
        return {
            "otype": self.otype,
            "koid": obj.koid,
            "flags": obj.flags,
            "offset": obj.offset,
            "path": obj.path,
            "ino": vnode.ino,
        }

    def restore(self, data: dict, ctx: RestoreContext) -> VnodeFile:
        vnode = ctx.vnodes.get(data["ino"])
        if vnode is None:
            raise SlsError(f"vnode ino {data['ino']} missing from image")
        file = VnodeFile(ctx.kernel.registry, vnode, data["flags"], path=data["path"])
        file.offset = data["offset"]
        return file


def serialize_vnode(vnode: Vnode, path: str, ctx: SerialContext) -> dict:
    """Vnode state incl. content (tmpfs files live only in the image).

    The persistent SLSFS keeps content in the object store; for those,
    content capture is delegated to the filesystem snapshot and only
    identity is recorded here.
    """
    entry = {
        "ino": vnode.ino,
        "vtype": vnode.vtype.value,
        "nlink": vnode.nlink,
        "open_refs": vnode.open_refs,
        "size": vnode.size,
        "mode": vnode.mode,
        "path": path,
        "fs": vnode.fs.name,
    }
    if vnode.fs.name == "tmpfs" and vnode.vtype == VnodeType.REGULAR:
        entry["data"] = vnode.fs.read(vnode, 0, vnode.size)
    return entry


def restore_vnode(data: dict, ctx: RestoreContext) -> Vnode:
    """Recreate a vnode: linked files at their path, anonymous files
    unlinked-but-open (the paper's on-disk open-refcount edge case)."""
    vfs = ctx.kernel.vfs
    path = data["path"] or f"/.sls-anon-{data['ino']}"
    try:
        file = vfs.open(path, O_RDWR | O_CREAT)
    except NoSuchFile:
        # Parent directory vanished (crash before it was made durable):
        # restore as an anonymous file in the root.
        path = f"/.sls-anon-{data['ino']}"
        file = vfs.open(path, O_RDWR | O_CREAT)
    vnode = file.vnode
    if "data" in data and data["data"]:
        vnode.fs.write(vnode, 0, data["data"])
    vnode.size = data["size"]
    vnode.mode = data["mode"]
    if data["nlink"] == 0:
        # Anonymous: drop the directory entry, keep it open-referenced
        # until every restored description is re-attached.
        vfs.unlink(path)
    ctx.vnodes[data["ino"]] = vnode
    # Balance the bookkeeping open reference we took via vfs.open once
    # the real descriptions have been re-attached.
    ctx.defer(lambda: _drop_bootstrap_ref(file))
    return vnode


def _drop_bootstrap_ref(file: VnodeFile) -> None:
    file.vnode.open_refs -= 1
    if file.vnode.open_refs == 0:
        file.vnode.fs.vnode_released(file.vnode)


@register
class PipeEndSerializer(Serializer):
    otype = "pipeend"

    def serialize(self, obj: PipeEnd, ctx: SerialContext) -> dict:
        pipe_state = None
        if ctx.mark(obj.pipe):
            pipe_state = {
                "koid": obj.pipe.koid,
                "capacity": obj.pipe.capacity,
                "buffer": bytes(obj.pipe.buffer),
                "read_open": obj.pipe.read_open,
                "write_open": obj.pipe.write_open,
            }
        return {
            "otype": self.otype,
            "koid": obj.koid,
            "writer": obj.writer,
            "pipe_koid": obj.pipe.koid,
            "pipe": pipe_state,
        }

    def restore(self, data: dict, ctx: RestoreContext) -> PipeEnd:
        pipe = ctx.resolve(data["pipe_koid"])
        if pipe is None:
            state = data["pipe"]
            if state is None:
                raise SlsError("pipe end restored before its pipe state")
            pipe = Pipe(ctx.kernel.registry, capacity=state["capacity"])
            pipe.buffer = bytearray(state["buffer"])
            pipe.read_open = state["read_open"]
            pipe.write_open = state["write_open"]
            ctx.remember(data["pipe_koid"], pipe)
        assert isinstance(pipe, Pipe)
        return PipeEnd(ctx.kernel.registry, pipe, writer=data["writer"])


@register
class SocketFileSerializer(Serializer):
    otype = "socketfile"

    def serialize(self, obj: SocketFile, ctx: SerialContext) -> dict:
        sock = obj.socket
        sock_state = None
        if ctx.mark(sock):
            sock_state = {
                "koid": sock.koid,
                "recv_buffer": bytes(sock.recv_buffer),
                "peer_koid": sock.peer.koid if sock.peer else None,
                "listening": sock.listening,
                "bound_name": sock.bound_name,
                "shutdown_read": sock.shutdown_read,
                "shutdown_write": sock.shutdown_write,
            }
        return {
            "otype": self.otype,
            "koid": obj.koid,
            "sock_koid": sock.koid,
            "sock": sock_state,
        }

    def restore(self, data: dict, ctx: RestoreContext) -> SocketFile:
        sock = ctx.resolve(data["sock_koid"])
        if sock is None:
            state = data["sock"]
            if state is None:
                raise SlsError("socket file restored before socket state")
            sock = UnixSocket(ctx.kernel.registry)
            sock.recv_buffer = bytearray(state["recv_buffer"])
            sock.listening = state["listening"]
            sock.bound_name = state["bound_name"]
            sock.shutdown_read = state["shutdown_read"]
            sock.shutdown_write = state["shutdown_write"]
            ctx.remember(data["sock_koid"], sock)
            if state["bound_name"]:
                ctx.kernel.unix_sockets.rebind(sock)
            peer_koid = state["peer_koid"]
            if peer_koid is not None:
                this = sock

                def link_peer():
                    peer = ctx.resolve(peer_koid)
                    if peer is None and ctx.captured_here:
                        # Rollback/in-place restore: the peer lives
                        # outside the group.  The connection survives
                        # if a live descriptor still holds the peer and
                        # the peer has lost its own (this socket's
                        # earlier incarnation exited).
                        procs = ctx.kernel.procs.all_processes()
                        live = held_sockets(procs).get(peer_koid)
                        if live is not None and live.peer is None:
                            peer = live
                    if isinstance(peer, UnixSocket):
                        this.peer = peer
                        peer.peer = this
                    # Otherwise the peer is gone (another kernel's
                    # image, closed or exited) or taken (a clone
                    # restored beside its original): the socket
                    # restores disconnected — reads drain the buffered
                    # data, then EOF.

                ctx.defer(link_peer)
        assert isinstance(sock, UnixSocket)
        return SocketFile(ctx.kernel.registry, sock)


def serialize_openfile(obj, ctx: SerialContext) -> dict:
    return serializer_for(obj.otype).serialize(obj, ctx)


def restore_openfile(data: dict, ctx: RestoreContext):
    existing = ctx.resolve(data["koid"])
    if existing is not None:
        return existing
    restored = serializer_for(data["otype"]).restore(data, ctx)
    ctx.remember(data["koid"], restored)
    return restored


def serialize_fdtable(table: FdTable, ctx: SerialContext) -> list:
    """Descriptor slots + (once each) the descriptions they reference."""
    out = []
    for fd, entry in table.items():
        file_data = None
        if ctx.mark(entry.file):
            file_data = serialize_openfile(entry.file, ctx)
        out.append(
            {
                "fd": fd,
                "file_koid": entry.file.koid,
                "cloexec": entry.close_on_exec,
                "file": file_data,
            }
        )
    return out


def restore_fdtable(slots: list, ctx: RestoreContext) -> FdTable:
    table = FdTable()
    for slot in slots:
        file = ctx.resolve(slot["file_koid"])
        if file is None:
            if slot["file"] is None:
                raise SlsError(
                    f"fd {slot['fd']} references koid {slot['file_koid']}"
                    " not present in the image"
                )
            file = restore_openfile(slot["file"], ctx)
        table.install(file, cloexec=slot["cloexec"], fd=slot["fd"])
    return table


# --- SysV IPC ------------------------------------------------------------------


def serialize_shm(segment: SharedMemorySegment, ctx: SerialContext) -> dict:
    ctx.mark(segment)
    return {
        "koid": segment.koid,
        "key": segment.key,
        "size": segment.size,
        "name": segment.name,
        "vm_oid": segment.vm_object.oid,
        "marked_removed": segment.marked_removed,
    }


def restore_shm(data: dict, ctx: RestoreContext) -> SharedMemorySegment:
    existing = ctx.resolve(data["koid"])
    if existing is not None:
        assert isinstance(existing, SharedMemorySegment)
        return existing
    vm_object = ctx.vm_objects.get(data["vm_oid"])
    if vm_object is None:
        raise SlsError(f"shm segment references missing VM object {data['vm_oid']}")
    segment = SharedMemorySegment(
        ctx.kernel.registry,
        key=data["key"],
        size=data["size"],
        vm_object=vm_object.ref(),
        name=data["name"],
    )
    segment.marked_removed = data["marked_removed"]
    ctx.remember(data["koid"], segment)
    registry = ctx.kernel.shm
    registry._by_key[segment.key] = segment
    if segment.name:
        registry._by_name[segment.name] = segment
    return segment


def serialize_msgqueue(queue: MessageQueue, ctx: SerialContext) -> dict:
    ctx.mark(queue)
    return {
        "koid": queue.koid,
        "key": queue.key,
        "capacity": queue.capacity,
        "messages": [[m.mtype, m.body] for m in queue.messages],
    }


def restore_msgqueue(data: dict, ctx: RestoreContext) -> MessageQueue:
    existing = ctx.resolve(data["koid"])
    if existing is not None:
        assert isinstance(existing, MessageQueue)
        return existing
    queue = ctx.kernel.msgqueues.msgget(data["key"])
    queue.capacity = data["capacity"]
    for mtype, body in data["messages"]:
        queue.send(mtype, body)
    ctx.remember(data["koid"], queue)
    return queue
