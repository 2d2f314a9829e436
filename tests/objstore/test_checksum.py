"""Fletcher-64: the closed form must be bit-identical to the word loop.

``reference_fletcher64`` is the implementation the store shipped with
(one ``int.from_bytes`` and two ``%`` per 4-byte word), kept here as
the oracle.  The golden values were computed with it and pinned as
literals, so a change to both sides at once still fails.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError
from repro.objstore.checksum import fletcher64, verify
from repro.objstore.record import HEADER_SIZE, KIND_META, pack_record, unpack_record


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
buffers = st.one_of(
    st.binary(max_size=600),
    # every residue of the length mod 4, with edge words in front
    st.builds(
        lambda words, tail: b"".join(words) + tail,
        st.lists(EDGE_WORDS, max_size=300),
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
