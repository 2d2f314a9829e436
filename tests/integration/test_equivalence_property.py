"""Property: ANY application state survives checkpoint → restore.

Hypothesis drives a random sequence of state-building operations
(memory writes across regions, file writes/seeks, pipe traffic, shm
pokes, message sends, signal state), checkpoints the process tree to
disk, restores it into a *fresh kernel*, and verifies the observable
state is identical.  This is the SLS contract in one test.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import make_disk_backend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.hw.nvme import NvmeDevice
from repro.objstore.store import ObjectStore
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Kernel
from repro.posix.signals import SIGUSR1
from repro.posix.syscalls import Syscalls
from repro.units import GIB, PAGE_SIZE

N_PAGES = 6

op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("mem"), st.integers(0, N_PAGES - 1),
                  st.binary(min_size=1, max_size=24)),
        st.tuples(st.just("file"), st.integers(0, 400),
                  st.binary(min_size=1, max_size=24)),
        st.tuples(st.just("pipe"), st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("shm"), st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("msg"), st.integers(1, 3),
                  st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("signal")),
        st.tuples(st.just("seek"), st.integers(0, 400)),
    ),
    max_size=25,
)


def build_state(ops):
    kernel = Kernel(memory_bytes=2 * GIB)
    sls = SLS(kernel)
    proc = kernel.spawn("subject")
    sys = Syscalls(kernel, proc)
    heap = sys.mmap(N_PAGES * PAGE_SIZE, name="heap")
    fd = sys.open("/state-file", O_RDWR | O_CREAT)
    pipe_r, pipe_w = sys.pipe()
    seg = sys.shmget(0x5EED, 2 * PAGE_SIZE)
    shm_addr = sys.shmat(seg)
    pipe_bytes = bytearray()
    for op in ops:
        if op[0] == "mem":
            _, page, data = op
            sys.poke(heap.start + page * PAGE_SIZE, data)
        elif op[0] == "file":
            _, offset, data = op
            sys.lseek(fd, offset)
            sys.write(fd, data)
        elif op[0] == "pipe":
            if len(pipe_bytes) + len(op[1]) < 60_000:
                sys.write(pipe_w, op[1])
                pipe_bytes += op[1]
        elif op[0] == "shm":
            sys.poke(shm_addr, op[1])
        elif op[0] == "msg":
            _, mtype, body = op
            try:
                sys.msgsnd(9, mtype, body)
            except Exception:
                pass
        elif op[0] == "signal":
            proc.signals.send(SIGUSR1)
        elif op[0] == "seek":
            sys.lseek(fd, op[1])
    return kernel, sls, proc, sys, heap, fd, (pipe_r, pipe_w), shm_addr


def observe(kernel, proc, heap, fd, pipe_fds, shm_addr):
    """Everything externally observable about the process state."""
    sys = Syscalls(kernel, proc)
    memory = [
        sys.peek(heap.start + i * PAGE_SIZE, 32) for i in range(N_PAGES)
    ]
    file = sys.fstat_file(fd)
    offset = file.offset
    sys.lseek(fd, 0)
    content = sys.read(fd, 1024)
    sys.lseek(fd, offset)
    shm = sys.peek(shm_addr, 32)
    queue = kernel.msgqueues.msgget(9)
    messages = [(m.mtype, m.body) for m in queue.messages]
    return {
        "memory": memory,
        "file_offset": offset,
        "file_content": content,
        "shm": shm,
        "messages": messages,
        "pending": sorted(proc.signals.pending),
        "cwd": proc.cwd,
    }


def drain_pipe(kernel, proc, pipe_r):
    sys = Syscalls(kernel, proc)
    out = bytearray()
    from repro.errors import WouldBlock

    while True:
        try:
            chunk = sys.read(pipe_r, 4096)
        except WouldBlock:
            break
        if not chunk:
            break
        out += chunk
    return bytes(out)


@settings(max_examples=25, deadline=None)
@given(ops=op_strategy)
def test_state_survives_checkpoint_restore(ops):
    kernel, sls, proc, sys, heap, fd, pipe_fds, shm_addr = build_state(ops)
    device = NvmeDevice(kernel.clock)
    group = sls.persist(proc, name="subject")
    group.attach(make_disk_backend(kernel, device))
    sls.checkpoint(group)
    sls.barrier(group)

    before = observe(kernel, proc, heap, fd, pipe_fds, shm_addr)
    pipe_before = drain_pipe(kernel, proc, pipe_fds[0])

    # Fresh machine, recovered store, lineage-rebuilt image.
    kernel2 = Kernel(memory_bytes=2 * GIB, clock=kernel.clock)
    sls2 = SLS(kernel2)
    store = ObjectStore(device, mem=kernel2.mem)
    store.recover()
    image = load_image_from_store(store, store.snapshots()[-1])
    procs, _ = sls2.restore(image, backend_name="disk0")
    revived = procs[0]

    after = observe(kernel2, revived, heap, fd, pipe_fds, shm_addr)
    assert after == before
    assert drain_pipe(kernel2, revived, pipe_fds[0]) == pipe_before
