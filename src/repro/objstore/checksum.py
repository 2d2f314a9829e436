"""Checksums for on-disk records.

Every record the object store writes carries one 64-bit checksum over
its header (all but the checksum field) and its payload:
:func:`crc32_adler32`, CRC-32 in the low word and Adler-32 in the high
word, both the standard library's C kernels.  Torn writes — a crash
between a record write and its durability point — and decayed bits
anywhere in a record, header included, are detected at recovery time
and the covering checkpoint is discarded.

:func:`fletcher64` and :func:`verify` are the previous record checksum.
Nothing in the store calls them; they stay importable only for the
benchmark tracer, which binds them by name.
"""

from __future__ import annotations

from zlib import adler32, crc32


def crc32_adler32(header: bytes, payload: bytes) -> int:
    """``adler32 << 32 | crc32``, each chained over ``header`` and then
    ``payload`` — the checksum of their concatenation, without building
    it.  Two unrelated 32-bit sums: CRC-32 catches every burst of up to
    32 flipped bits (a single bit, a torn word) and Adler-32 adds a
    second, differently built 32 bits on top.  Unlike a ones'-complement
    sum, neither confuses an all-zero word with an all-ones one, so an
    erased (``0xFF``-filled) page does not pass for a zero page."""
    return adler32(payload, adler32(header)) << 32 | crc32(payload, crc32(header))


_MOD = 0xFFFFFFFF

#: A block is ``2**_BLOCK_LOG2`` 64-bit slots of two words each.  Every
#: slot below holds a sum of non-negative terms that, over all slots,
#: add up to at most ``Σ i·wᵢ < words² · 2³²``; at 2¹⁵ words that is
#: 2⁶², two bits short of the slot width, so no slot ever carries into
#: its neighbour and the sums are exact.  (Sufficient, not necessary: a
#: carry between slots of ``w`` moves the slot sum by a multiple of
#: 2⁶⁴ − 1, which ``M`` divides.  The block also bounds the masks.)
_BLOCK_LOG2 = 14
_BLOCK_BYTES = 8 << _BLOCK_LOG2
#: the low 32 bits of every slot of a block
_EVEN = int.from_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00" * (1 << _BLOCK_LOG2), "little")
#: ``_FOLDS[k]`` takes ``2**k`` slots down to one: per halving at ``h``
#: slots, (bits in ``h`` slots, mask of the low ``h`` slots, ``2 * h``).
#: The masks are shared between entries, ≈ 0.3 MiB with ``_EVEN``.
_HALVINGS = [(64 * h, (1 << 64 * h) - 1, 2 * h) for h in (1 << k for k in range(_BLOCK_LOG2))]
_FOLDS = [tuple(reversed(_HALVINGS[:k])) for k in range(_BLOCK_LOG2 + 1)]


# Bound by name as the ``objstore.checksum`` entry point of benchmarks/e2e/spans.py.
def fletcher64(data: bytes) -> int:
    """Fletcher-64 over little-endian 4-byte words (zero-padded tail).

    The textbook loop reduces ``sum1 = (sum1 + w) % M`` and ``sum2 =
    (sum2 + sum1) % M`` after every word.  Reduction commutes with
    addition, so for ``n`` words the same two values are ``Σwᵢ mod M``
    and ``(n·Σwᵢ − Σ i·wᵢ) mod M``.  Both sums are taken on the payload
    read once as a big integer ``Σ wᵢ·2^(32i)`` (which zero-pads the
    tail for free), with only ``>>``, ``&``, ``+`` and ``* small`` — C
    loops over the integer's digits, no Python object per word (tests
    keep the loop as the oracle).  Even and odd words go to 64-bit
    slots, ``a`` holding ``w₂ⱼ + w₂ⱼ₊₁`` and ``w`` holding ``w₂ⱼ₊₁``,
    so that ``Σ i·wᵢ = 2·T(a) + S(w)`` (``S`` the sum of the slots,
    ``T`` the sum weighted by slot index).  Folding the upper half
    ``hi`` of ``a`` onto the lower drops ``h·S(hi)`` from ``T(a)``;
    adding ``2h·hi`` to ``w`` keeps the invariant.  With one slot left
    ``T(a) = 0``: ``a`` is ``Σwᵢ`` and ``w`` is ``Σ i·wᵢ``.  Payloads
    longer than a block compose: a block at word offset ``o`` adds
    ``o·Σwᵢ`` of its own words to the weighted sum.  Deliberately not
    NumPy: importing it costs +16.1 MiB of peak RSS (measured), +46 %
    on the smallest benchmark workload.
    """
    size = len(data)
    total = weighted = 0
    for start in range(0, size, _BLOCK_BYTES):
        block = data[start : start + _BLOCK_BYTES]
        n = int.from_bytes(block, "little")
        w = (n >> 32) & _EVEN
        a = (n & _EVEN) + w
        # the fold for the block's slot count rounded up to a power of two
        for shift, low, twice_h in _FOLDS[((len(block) - 1) >> 3).bit_length()]:
            hi = a >> shift
            a = (a & low) + hi
            w = (w & low) + (w >> shift) + twice_h * hi
        total += a
        weighted += w + (start >> 2) * a
    return ((((size + 3) >> 2) * total - weighted) % _MOD) << 32 | total % _MOD


# Bound by name as the ``objstore.checksum`` entry point of benchmarks/e2e/spans.py.
def verify(data: bytes, expected: int) -> bool:
    return fletcher64(data) == expected
