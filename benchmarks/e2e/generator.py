"""Seeded input generation for the end-to-end benchmark.

Everything the simulated system is fed comes from here and is a pure
function of ``(seed, workload, stream)``: the same triple gives the
same bytes, a different seed different bytes, and nothing reads the
host clock, the environment or the program under test.  The workloads
hand the program *only* these generated inputs and keep the
generator's own copy as the reference the correctness oracles compare
restored state against.

Content mix (so the write-path codec really has to choose between
RAW / ZLIB / DELTA and dedup is neither free nor absent):

* 40 % incompressible pages (seeded random bytes),
* 40 % text-like pages (a small vocabulary; zlib level 1 gets ~4x),
* 20 % sparse pages (a 64-byte header, the rest zero).

Write mix: 70 % sub-page pokes (8..256 bytes at a random offset),
30 % full-page rewrites, page choice Zipf(0.99) over a seeded
permutation of the heap (hot pages are scattered, not contiguous).
"""

from __future__ import annotations

import bisect
import random
from typing import NamedTuple

PAGE = 4096

ZIPF_SKEW = 0.99
_SPARSE_HEADER = 64
_VOCAB = tuple(
    word.encode()
    for word in (
        "aurora single level store checkpoint restore page object flush "
        "kernel process memory snapshot device queue record manifest "
        "incremental durable barrier serialise resume container function "
        "the of and to in is that for with as on at by from"
    ).split()
)


class Write(NamedTuple):
    """One application store: ``data`` at byte ``offset`` of heap page ``page``."""

    page: int
    offset: int
    data: bytes


class Arrival(NamedTuple):
    """One open-loop request: due ``gap_ns`` after the previous one."""

    gap_ns: int
    target: int
    payload: bytes


def rng_for(seed: int, workload: str, stream: str) -> random.Random:
    """The independent stream for one consumer (str seeds hash stably)."""
    return random.Random(f"e2e:{seed}:{workload}:{stream}")


def make_page(rng: random.Random) -> bytes:
    """One page of the 40/40/20 content mix (trailing zeros trimmed)."""
    draw = rng.random()
    if draw < 0.4:
        return rng.randbytes(PAGE)
    if draw < 0.8:
        return b" ".join(rng.choices(_VOCAB, k=900))[:PAGE]
    return rng.randbytes(_SPARSE_HEADER)


def heap_pages(seed: int, workload: str, count: int) -> list[bytes]:
    """Initial heap content: ``count`` pages of the content mix."""
    rng = rng_for(seed, workload, "heap")
    return [make_page(rng) for _ in range(count)]


def zipf_picker(rng: random.Random, n: int, skew: float = ZIPF_SKEW):
    """Sampler of Zipf(skew) ranks mapped through a seeded permutation
    of ``range(n)``."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
    total = sum(weights)
    cumulative, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    cumulative[-1] = 1.0
    order = list(range(n))
    rng.shuffle(order)

    def pick() -> int:
        return order[bisect.bisect_left(cumulative, rng.random())]

    return pick


def write_intervals(seed: int, workload: str, *, intervals: int,
                    writes: int, pages: int,
                    bursty: bool = False) -> list[list[Write]]:
    """``intervals`` batches of ``writes`` application stores each
    (``bursty``: a seeded 1..2*writes each, same mean)."""
    rng = rng_for(seed, workload, "writes")
    pick = zipf_picker(rng, pages)
    out = []
    for _ in range(intervals):
        batch = []
        for _ in range(rng.randint(1, 2 * writes) if bursty else writes):
            page = pick()
            if rng.random() < 0.7:
                length = rng.randrange(8, 257)
                offset = rng.randrange(0, PAGE - length)
                batch.append(Write(page, offset, rng.randbytes(length)))
            else:
                batch.append(Write(page, 0, make_page(rng).ljust(PAGE, b"\0")))
        out.append(batch)
    return out


def arrivals(seed: int, workload: str, *, count: int, mean_gap_ns: int,
             targets: int) -> list[Arrival]:
    """An open-loop request schedule: exponential gaps around
    ``mean_gap_ns``, Zipf-skewed targets, a distinct payload each."""
    rng = rng_for(seed, workload, "arrivals")
    pick = zipf_picker(rng, targets)
    return [
        Arrival(
            gap_ns=max(1, int(rng.expovariate(1.0 / mean_gap_ns))),
            target=pick(),
            payload=b"req-%06d-" % index + rng.randbytes(8).hex().encode(),
        )
        for index in range(count)
    ]


def shuffled(seed: int, workload: str, stream: str, n: int) -> list[int]:
    """A seeded permutation of ``range(n)`` (fault orders)."""
    order = list(range(n))
    rng_for(seed, workload, stream).shuffle(order)
    return order


def blobs(seed: int, workload: str, stream: str, *, count: int,
          size: int) -> list[bytes]:
    """``count`` distinct printable tokens (function customisations)."""
    rng = rng_for(seed, workload, stream)
    return [rng.randbytes(size // 2).hex().encode() for _ in range(count)]


class HeapModel:
    """The generator's reference copy of one heap: what every page must
    read back as after the writes applied so far."""

    def __init__(self, pages: list[bytes]):
        self.pages = [page.ljust(PAGE, b"\0") for page in pages]

    def apply(self, writes) -> None:
        pages = self.pages
        for page, offset, data in writes:
            old = pages[page]
            pages[page] = old[:offset] + data + old[offset + len(data):]
