"""Record checksums.

The record checksum, ``crc32_adler32``, is checked against the
definition it claims — zlib's CRC-32 and Adler-32 of header and payload
concatenated — and against golden values pinned as literals.

Fletcher-64, the previous record checksum, stays importable for the
benchmark tracer: its big-integer fold must be bit-identical to the word
loop.  ``reference_fletcher64`` is the implementation the store first
shipped with (one ``int.from_bytes`` and two ``%`` per 4-byte word),
kept here as the oracle.  Its golden values were computed with it and
pinned as literals, so a change to both sides at once still fails.
"""

import random
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError
from repro.objstore.checksum import _BLOCK_BYTES, crc32_adler32, fletcher64, verify
from repro.objstore.record import (
    COVERED_SIZE,
    HEADER_SIZE,
    KIND_META,
    pack_record,
    unpack_record,
)

# --- the record checksum -----------------------------------------------------------


def reference_crc32_adler32(header: bytes, payload: bytes) -> int:
    whole = bytes(header) + bytes(payload)
    return zlib.adler32(whole) << 32 | zlib.crc32(whole)


RECORD_GOLDEN = [
    (b"", b"", 0x100000000),
    (b"", b"hello", 0x062C02153610A686),
    (b"AUR0", b"hello", 0x0E7F032D722450E0),
    (b"", bytes(4096), 0x10000001C71C0011),
    (b"", b"\xff" * 4096, 0x8161F0E2F154670A),
    (b"", random.Random(0xA0A0).randbytes(70002), 0xD56C6B23D94214A6),
]


@pytest.mark.parametrize(
    "header, payload, expected", RECORD_GOLDEN,
    ids=["empty", "hello", "header+hello", "zero-page", "ff-page", "random-70002"],
)
def test_record_checksum_golden_vectors(header, payload, expected):
    assert crc32_adler32(header, payload) == expected
    assert reference_crc32_adler32(header, payload) == expected


@settings(max_examples=200, deadline=None)
@given(
    header=st.binary(max_size=40),
    payload=st.binary(max_size=600),
    wrap=st.sampled_from([bytes, bytearray, memoryview]),
)
def test_record_checksum_is_the_checksum_of_the_concatenation(header, payload, wrap):
    assert crc32_adler32(wrap(header), wrap(payload)) == reference_crc32_adler32(
        header, payload
    )


def test_erased_words_are_not_zero_words():
    # Fletcher-64 sums modulo 2**32 - 1, where 0xFFFFFFFF is 0
    zero, erased = bytes(4096), b"\xff" * 4096
    one_word = bytes(64) + b"\xff" * 4 + bytes(4028)
    assert fletcher64(zero) == fletcher64(erased) == fletcher64(one_word)
    assert len({crc32_adler32(b"", page) for page in (zero, erased, one_word)}) == 3


def test_the_checksum_field_covers_the_rest_of_the_header_and_the_payload():
    record = pack_record(KIND_META, 1, 1, bytes(range(64)))
    covered, payload = record[:COVERED_SIZE], record[HEADER_SIZE:]
    assert int.from_bytes(record[COVERED_SIZE:HEADER_SIZE], "little") == crc32_adler32(
        covered, payload
    )


# --- Fletcher-64 -------------------------------------------------------------------


def reference_fletcher64(data) -> int:
    sum1 = 0
    sum2 = 0
    mod = 0xFFFFFFFF
    view = memoryview(data)
    whole = len(data) - (len(data) % 4)
    for i in range(0, whole, 4):
        word = int.from_bytes(view[i : i + 4], "little")
        sum1 = (sum1 + word) % mod
        sum2 = (sum2 + sum1) % mod
    tail = bytes(view[whole:])
    if tail:
        word = int.from_bytes(tail + b"\x00" * (4 - len(tail)), "little")
        sum1 = (sum1 + word) % mod
        sum2 = (sum2 + sum1) % mod
    return (sum2 << 32) | sum1


GOLDEN = [
    (b"", 0x0),
    (b"hello", 0xD8D8CB3F6C6C65D7),
    (bytes(4096), 0x0),
    (b"\xff" * 4097, 0xFF000000FF),
    (random.Random(0xA0A0).randbytes(70002), 0xFCD72E3B6B3DA9C3),
]


@pytest.mark.parametrize(
    "data, expected", GOLDEN, ids=["empty", "hello", "zero-page", "ff-4097", "random-70002"]
)
def test_golden_vectors(data, expected):
    assert fletcher64(data) == expected
    assert reference_fletcher64(data) == expected


#: word values at the ``mod 2**32 - 1`` edge: the modulus itself (which
#: reduces to 0), its neighbour, and 0/1
EDGE_WORDS = st.sampled_from(
    [b"\xff\xff\xff\xff", b"\xfe\xff\xff\xff", b"\x00\x00\x00\x00", b"\x01\x00\x00\x00"]
)
#: ten pages: past every record the store writes but a spilled directory
MAX_BUFFER = 40 * 1024
buffers = st.one_of(
    st.binary(max_size=600),
    # every residue of the length mod 4, with edge words in front
    st.builds(
        lambda words, tail: b"".join(words) + tail,
        st.lists(EDGE_WORDS, max_size=300),
        st.binary(max_size=3),
    ),
    # whole pages and more.  Hypothesis caps what it draws byte by
    # byte, so a long buffer is seeded noise or one edge word repeated.
    st.builds(
        lambda seed, size: random.Random(seed).randbytes(size),
        st.integers(0, 2**32 - 1),
        st.integers(0, MAX_BUFFER),
    ),
    st.builds(
        lambda word, count, tail: word * count + tail,
        EDGE_WORDS,
        st.integers(0, MAX_BUFFER // 4),
        st.binary(max_size=3),
    ),
)


@settings(max_examples=300, deadline=None)
@given(data=buffers, wrap=st.sampled_from([bytes, bytearray, memoryview]))
def test_matches_reference_loop(data, wrap):
    assert fletcher64(wrap(data)) == reference_fletcher64(data)


@pytest.mark.parametrize("length", range(0, 13))
@pytest.mark.parametrize("fill", [0xFF, 0xFE, 0x00, 0xA5])
def test_every_tail_length(length, fill):
    data = bytes([fill]) * length
    assert fletcher64(data) == reference_fletcher64(data)


#: every slot count the fold table has an entry for: 8 bytes a slot,
#: one slot up to a whole block
SLOT_BOUNDARIES = [8 << k for k in range((_BLOCK_BYTES // 8).bit_length())]


@pytest.mark.parametrize("boundary", SLOT_BOUNDARIES)
def test_lengths_around_every_slot_count_boundary(boundary):
    noise = random.Random(boundary).randbytes(boundary + 9)
    ones = b"\xff" * (boundary + 9)
    for length in range(max(boundary - 9, 0), boundary + 10):
        for data in (noise[:length], ones[:length]):
            assert fletcher64(data) == reference_fletcher64(data), length


@pytest.mark.parametrize("fill", [0xFF, 0xFE])
@pytest.mark.parametrize(
    "length",
    [_BLOCK_BYTES - 4, _BLOCK_BYTES, _BLOCK_BYTES + 4, 1 << 20],
    ids=["block-1w", "block", "block+1w", "1MiB"],
)
def test_saturated_payloads_at_the_block_bound(length, fill):
    # the largest word values at the largest block — the largest slot
    # sums the fold ever holds — and payloads whose blocks must compose
    # with the right word offsets
    data = bytes([fill]) * length
    assert fletcher64(data) == reference_fletcher64(data)


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_buffer_types_at_a_page(wrap):
    page = random.Random(0x9A6E).randbytes(4096)
    assert fletcher64(wrap(page)) == reference_fletcher64(page)


def test_no_python_object_per_word():
    # the repo allows no wall-clock assertion; peak allocation is the
    # deterministic proxy.  The fold peaks near 5x the input (the
    # integer, its even and odd halves, their sum); a tuple of one int
    # per word is already past 9x.
    data = random.Random(0x64).randbytes(64 * 1024)
    fletcher64(data)
    tracemalloc.start()
    try:
        fletcher64(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * len(data)


def test_long_edge_runs_reduce_like_the_loop():
    # sums far past 2**32: the one-shot reduction must agree with the
    # per-step one
    for word in (b"\xff\xff\xff\xff", b"\xfe\xff\xff\xff"):
        data = word * 20000 + b"\xff"
        assert fletcher64(data) == reference_fletcher64(data)


def test_every_single_bit_flip_is_detected():
    payload = bytes(range(64))
    expected = fletcher64(payload)
    record = pack_record(KIND_META, 1, 1, payload)
    for bit in range(len(payload) * 8):
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert not verify(flipped, expected), bit
        torn = bytearray(record)
        torn[HEADER_SIZE + bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ChecksumError):
            unpack_record(bytes(torn))
