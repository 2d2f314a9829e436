"""Process-tree serialization: the checkpoint's metadata pass.

``serialize_group`` walks everything reachable from the persisted
processes — threads, CPU state, signals, descriptor tables, open-file
descriptions, pipes, sockets, vnodes, shared memory, message queues,
VM objects and map entries — and produces one self-contained metadata
value.  ``restore_group`` rebuilds the identical object graph in a
kernel (the same one after a rollback, or a different machine after
``sls send``).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RestoreError
from repro.mem.address_space import AddressSpace
from repro.mem.vmobject import VMObject
from repro.posix.kernel import Kernel
from repro.posix.process import CpuState, Process, Thread, ThreadState
from repro.posix.shm import SharedMemorySegment
from repro.serial.fdsnap import (
    restore_fdtable,
    restore_msgqueue,
    restore_shm,
    restore_vnode,
    serialize_fdtable,
    serialize_msgqueue,
    serialize_shm,
    serialize_vnode,
)
from repro.serial.memsnap import (
    restore_entries,
    restore_vm_objects,
    serialize_entries,
    serialize_vm_objects,
)
from repro.serial.registry import RestoreContext, SerialContext


def _serialize_cpu(cpu: CpuState) -> dict:
    return {
        "rip": cpu.rip,
        "rflags": cpu.rflags,
        "gp": dict(cpu.gp),
        "fs_base": cpu.fs_base,
        "fpu": cpu.fpu,
    }


def _restore_cpu(data: dict) -> CpuState:
    return CpuState(
        rip=data["rip"],
        rflags=data["rflags"],
        gp=dict(data["gp"]),
        fs_base=data["fs_base"],
        fpu=data["fpu"],
    )


def _serialize_thread(thread: Thread, ctx: SerialContext) -> dict:
    ctx.mark(thread)
    return {
        "tid": thread.tid,
        "cpu": _serialize_cpu(thread.cpu),
        "state": thread.state.value,
        "wait_channel": thread.wait_channel,
    }


def _serialize_signals(proc: Process) -> dict:
    return {
        "pending": list(proc.signals.pending),
        "blocked": sorted(proc.signals.blocked),
        "handlers": {str(k): v for k, v in proc.signals.handlers.items()},
    }


def serialize_process(proc: Process, ctx: SerialContext) -> dict:
    ctx.mark(proc)
    return {
        "pid": proc.pid,
        "ppid": proc.ppid,
        "name": proc.name,
        "cwd": proc.cwd,
        "umask": proc.umask,
        "pgid": proc.pgid,
        "sid": proc.sid,
        "uid": proc.uid,
        "gid": proc.gid,
        "container_id": proc.container_id,
        "argv": list(proc.argv),
        "env": dict(proc.env),
        "threads": [_serialize_thread(t, ctx) for t in proc.threads],
        "signals": _serialize_signals(proc),
        "fds": serialize_fdtable(proc.fdtable, ctx),
        "entries": serialize_entries(proc.aspace, ctx),
        "shm_attachments": [
            [addr, seg.koid] for addr, seg in proc.shm_attachments.items()
        ],
    }


def group_vm_objects(procs: list[Process]) -> list[VMObject]:
    """Unique VM objects reachable from the group's address spaces."""
    seen: dict[int, VMObject] = {}
    for proc in procs:
        for obj in proc.aspace.vm_objects():
            seen.setdefault(obj.oid, obj)
    return list(seen.values())


def serialize_group(procs: list[Process], kernel: Kernel) -> tuple[dict, SerialContext]:
    """Serialize a whole persistence group's metadata.

    Returns the metadata value plus the context (whose
    ``objects_serialized`` count drives the Table 3 metadata-copy cost
    charged by the orchestrator).
    """
    ctx = SerialContext(kernel)
    proc_entries = [serialize_process(p, ctx) for p in procs]
    vm_objects = serialize_vm_objects(group_vm_objects(procs), ctx)

    # IPC objects referenced by the group.
    shm_entries = []
    seen_shm: set[int] = set()
    for proc in procs:
        for segment in proc.shm_attachments.values():
            assert isinstance(segment, SharedMemorySegment)
            if segment.koid not in seen_shm:
                seen_shm.add(segment.koid)
                shm_entries.append(serialize_shm(segment, ctx))
    msgq_entries = [
        serialize_msgqueue(q, ctx) for q in kernel.msgqueues.queues()
    ]

    # Vnodes collected while serializing descriptor tables.
    vnode_entries = [
        serialize_vnode(vnode, ctx.vnode_paths.get(ino, ""), ctx)
        for ino, vnode in sorted(ctx.vnodes.items())
    ]

    meta = {
        "hostname": kernel.hostname,
        "procs": proc_entries,
        "vmobjects": vm_objects,
        "shm": shm_entries,
        "msgqueues": msgq_entries,
        "vnodes": vnode_entries,
    }
    return meta, ctx


def restore_group(
    meta: dict,
    kernel: Kernel,
    preserve_pids: bool = True,
    name_suffix: str = "",
) -> tuple[list[Process], RestoreContext]:
    """Rebuild a serialized group inside ``kernel``.

    With ``preserve_pids`` original PIDs are claimed when free (post-
    crash resume); otherwise fresh PIDs are allocated (scale-out
    restores of many instances from one image).  Page content is NOT
    installed here — the restore engine does that according to the
    backend and the lazy/eager policy.
    """
    ctx = RestoreContext(kernel)

    restore_vm_objects(meta["vmobjects"], ctx)
    for vnode_data in meta["vnodes"]:
        restore_vnode(vnode_data, ctx)
    for shm_data in meta["shm"]:
        restore_shm(shm_data, ctx)
    for msgq_data in meta["msgqueues"]:
        restore_msgqueue(msgq_data, ctx)

    procs: list[Process] = []
    by_pid: dict[int, Process] = {}
    for pdata in meta["procs"]:
        want_pid = pdata["pid"]
        if preserve_pids and kernel.procs.get(want_pid) is None:
            pid = kernel.procs.force_pid(want_pid)
        else:
            pid = kernel.procs.allocate_pid()
        aspace = AddressSpace(kernel.mem, name=pdata["name"] + name_suffix)
        ctx.aspaces_created += 1
        restore_entries(aspace, pdata["entries"], ctx)
        fdtable = restore_fdtable(pdata["fds"], ctx)
        parent = by_pid.get(pdata["ppid"]) or kernel.init
        proc = Process(
            pid=pid,
            name=pdata["name"] + name_suffix,
            aspace=aspace,
            fdtable=fdtable,
            parent=parent,
            container_id=pdata["container_id"],
        )
        proc.cwd = pdata["cwd"]
        proc.umask = pdata["umask"]
        proc.pgid = pdata["pgid"]
        proc.sid = pdata["sid"]
        proc.uid = pdata["uid"]
        proc.gid = pdata["gid"]
        proc.argv = list(pdata["argv"])
        proc.env = dict(pdata["env"])
        proc.signals.pending = list(pdata["signals"]["pending"])
        proc.signals.blocked = set(pdata["signals"]["blocked"])
        proc.signals.handlers = {
            int(k): v for k, v in pdata["signals"]["handlers"].items()
        }
        # Threads: replace the default main thread with the image's.
        proc.threads.clear()
        for tdata in pdata["threads"]:
            thread = Thread(proc, cpu=_restore_cpu(tdata["cpu"]))
            thread.state = ThreadState(tdata["state"])
            thread.wait_channel = tdata["wait_channel"]
            proc.threads.append(thread)
            kernel.registry.register(thread)
        if not proc.threads:
            raise RestoreError(f"process {pdata['pid']} has no threads in image")
        for addr, shm_koid in pdata["shm_attachments"]:
            segment = ctx.resolve(shm_koid)
            if segment is not None:
                proc.shm_attachments[addr] = segment
                kernel.shm.note_attach(segment)
        kernel.procs.insert(proc)
        kernel.registry.register(proc)
        if proc.container_id and proc.container_id in kernel.containers:
            kernel.containers[proc.container_id].member_pids.add(proc.pid)
        ctx.pids[pdata["pid"]] = proc
        by_pid[pdata["pid"]] = proc
        procs.append(proc)

    ctx.run_fixups()
    ctx.objects_restored += len(procs)
    return procs, ctx
