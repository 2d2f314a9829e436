"""System V message queues.

Queue contents are kernel state invisible at the syscall boundary until
received — a clean example of why Aurora persists kernel objects
directly instead of scraping ``/proc`` like CRIU.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import NoSuchFile, PosixError, WouldBlock
from repro.posix.objects import KernelObject, ObjectRegistry

MSGMNB = 16 * 1024  # default queue capacity in bytes


@dataclass
class Message:
    mtype: int
    body: bytes


class MessageQueue(KernelObject):
    """One SysV message queue."""

    otype = "msgqueue"

    def __init__(self, registry: ObjectRegistry, key: int, capacity: int = MSGMNB):
        super().__init__(registry)
        self.key = key
        self.capacity = capacity
        self.messages: deque[Message] = deque()
        self.bytes_used = 0

    def send(self, mtype: int, body: bytes) -> None:
        if mtype <= 0:
            raise PosixError("message type must be positive", errno="EINVAL")
        if self.bytes_used + len(body) > self.capacity:
            raise WouldBlock("message queue full")
        self.messages.append(Message(mtype=mtype, body=bytes(body)))
        self.bytes_used += len(body)

    def receive(self, mtype: int = 0) -> Message:
        """``msgrcv``: mtype 0 takes the head; positive takes first match."""
        if mtype == 0:
            if not self.messages:
                raise WouldBlock("message queue empty")
            message = self.messages.popleft()
        else:
            for i, candidate in enumerate(self.messages):
                if candidate.mtype == mtype:
                    message = candidate
                    del self.messages[i]
                    break
            else:
                raise WouldBlock(f"no message of type {mtype}")
        self.bytes_used -= len(message.body)
        return message

    def __len__(self) -> int:
        return len(self.messages)


class MessageQueueRegistry:
    """Kernel table of SysV message queues."""

    def __init__(self, registry: ObjectRegistry):
        self.registry = registry
        self._by_key: dict[int, MessageQueue] = {}

    def msgget(self, key: int, create: bool = True) -> MessageQueue:
        queue = self._by_key.get(key)
        if queue is not None:
            return queue
        if not create:
            raise NoSuchFile(f"no message queue with key {key}")
        queue = MessageQueue(self.registry, key=key)
        self._by_key[key] = queue
        return queue

    def msgrm(self, key: int) -> None:
        if self._by_key.pop(key, None) is None:
            raise NoSuchFile(f"no message queue with key {key}")

    def queues(self) -> list[MessageQueue]:
        return list(self._by_key.values())
