"""Pipes.

A pipe's kernel state is its in-flight buffer plus the liveness of each
end; both are captured at checkpoint so data written-but-unread before
a crash reappears after restore.
"""

from __future__ import annotations

from repro.errors import BrokenPipe, WouldBlock
from repro.posix.fd import O_RDONLY, O_WRONLY, OpenFile
from repro.posix.objects import KernelObject, ObjectRegistry

PIPE_BUF_CAPACITY = 64 * 1024


class Pipe(KernelObject):
    """The kernel pipe object shared by both ends."""

    otype = "pipe"

    def __init__(self, registry: ObjectRegistry, capacity: int = PIPE_BUF_CAPACITY):
        super().__init__(registry)
        self.capacity = capacity
        self.buffer = bytearray()
        self.read_open = True
        self.write_open = True

    @property
    def fill(self) -> int:
        return len(self.buffer)


class PipeEnd(OpenFile):
    """One end of a pipe, as an open-file description."""

    otype = "pipeend"

    def __init__(self, registry: ObjectRegistry, pipe: Pipe, writer: bool):
        super().__init__(registry, flags=O_WRONLY if writer else O_RDONLY)
        self.pipe = pipe
        self.writer = writer

    def read(self, nbytes: int) -> bytes:
        if self.writer:
            raise BrokenPipe("read from write end", errno="EBADF")
        pipe = self.pipe
        if not pipe.buffer:
            if not pipe.write_open:
                return b""  # EOF
            raise WouldBlock("pipe empty")
        data = bytes(pipe.buffer[:nbytes])
        del pipe.buffer[: len(data)]
        return data

    def write(self, data: bytes) -> int:
        if not self.writer:
            raise BrokenPipe("write to read end", errno="EBADF")
        pipe = self.pipe
        if not pipe.read_open:
            raise BrokenPipe("pipe has no readers")
        room = pipe.capacity - len(pipe.buffer)
        if room <= 0:
            raise WouldBlock("pipe full")
        accepted = data[:room]
        pipe.buffer.extend(accepted)
        return len(accepted)

    def on_last_close(self) -> None:
        if self.writer:
            self.pipe.write_open = False
        else:
            self.pipe.read_open = False


def make_pipe(registry: ObjectRegistry) -> tuple[PipeEnd, PipeEnd]:
    """Create a pipe; returns (read_end, write_end)."""
    pipe = Pipe(registry)
    return PipeEnd(registry, pipe, writer=False), PipeEnd(registry, pipe, writer=True)
