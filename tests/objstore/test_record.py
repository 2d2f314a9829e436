"""Unit tests for checksums, record framing, and the metadata codec."""

import dataclasses
import enum
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError, ObjectStoreError
from repro.hw.nvme import NvmeDevice
from repro.objstore import ObjectStore, PersistentLog, check_store
from repro.objstore.alloc import Extent
from repro.objstore.block import SUPERBLOCK_SLOT_SIZE
from repro.objstore.checksum import fletcher64, verify
from repro.objstore.record import (
    COVERED_SIZE,
    HEADER_SIZE,
    KIND_FILEDATA,
    KIND_LOG,
    KIND_MANIFEST,
    KIND_META,
    KIND_PAGE,
    KIND_SUPER,
    MAX_DEPTH,
    decode,
    encode,
    pack_record,
    unpack_header,
    unpack_record,
)
from repro.objstore.snapshot import (
    MetaRef,
    PageRef,
    PageTable,
    Snapshot,
    SnapshotDirectory,
    encode_manifest,
    parse_manifest,
)
from repro.objstore.walk import CHECKSUM_CORRUPT
from repro.sim.clock import SimClock

ALL_KINDS = [KIND_META, KIND_PAGE, KIND_MANIFEST, KIND_LOG, KIND_SUPER, KIND_FILEDATA]


class TestFletcher64:
    def test_deterministic(self):
        assert fletcher64(b"hello") == fletcher64(b"hello")

    def test_discriminates(self):
        assert fletcher64(b"hello") != fletcher64(b"hellp")

    def test_order_sensitive(self):
        assert fletcher64(b"ab" * 10) != fletcher64(b"ba" * 10)

    def test_empty(self):
        assert fletcher64(b"") == 0

    def test_verify(self):
        assert verify(b"data", fletcher64(b"data"))
        assert not verify(b"data", fletcher64(b"data") + 1)

    def test_unaligned_tail(self):
        assert fletcher64(b"abcde") != fletcher64(b"abcd")


class TestRecordFraming:
    def test_roundtrip(self):
        raw = pack_record(kind=KIND_META, oid=7, epoch=3, payload=b"payload")
        header, payload = unpack_record(raw)
        assert header.oid == 7
        assert header.epoch == 3
        assert payload == b"payload"

    def test_corrupt_payload_detected(self):
        raw = bytearray(pack_record(KIND_META, 1, 1, b"sensitive"))
        raw[HEADER_SIZE] ^= 0xFF
        with pytest.raises(ChecksumError):
            unpack_record(bytes(raw))

    def test_bad_magic_detected(self):
        raw = bytearray(pack_record(KIND_META, 1, 1, b"x"))
        raw[0] ^= 0xFF
        with pytest.raises(ChecksumError):
            unpack_header(bytes(raw))

    def test_truncated_payload_detected(self):
        raw = pack_record(KIND_META, 1, 1, b"0123456789")
        with pytest.raises(ChecksumError):
            unpack_record(raw[: HEADER_SIZE + 4])

    def test_short_header(self):
        with pytest.raises(ObjectStoreError):
            unpack_header(b"tiny")

    def test_one_flipped_header_bit_cannot_roll_back_a_commit(self):
        device = NvmeDevice(SimClock())
        store = ObjectStore(device)
        for n in range(3):
            ref = store.write_meta(oid=10 + n, value={"n": n})
            store.commit_snapshot(f"s{n}", None, [ref], [])
        store.volume.flush_barrier()
        # generations 2 and 3 hold slots 0 and 1; one bit of the older
        # slot's epoch (second byte, little-endian) makes it 258
        epoch_at = struct.calcsize("<IHHQ")
        assert unpack_header(device.read(0, HEADER_SIZE)).epoch == 2
        device.write(epoch_at + 1, bytes([device.read(epoch_at + 1, 1)[0] ^ 1]))
        assert unpack_header(device.read(0, HEADER_SIZE)).epoch == 258
        recovered = ObjectStore(device)
        recovered.recover()
        # with the header outside the checksum, recovery adopted the
        # stale slot (['s0', 's1']: acknowledged s2 gone) and fsck
        # called the media clean
        assert (
            [s.name for s in recovered.snapshots()] == ["s0", "s1", "s2"]
            or not check_store(ObjectStore(device)).clean
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_header_bit_is_under_the_checksum(self, kind):
        raw = pack_record(kind, oid=0x0123456789, epoch=77, payload=b"covered", flags=1)
        for bit in range(HEADER_SIZE * 8):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ChecksumError):
                unpack_record(bytes(flipped))


# --- header bit flips on a populated device ---------------------------------------

LOG_OWNER = 99


def _populated_device():
    """Three snapshots (a metadata record and two pages each) and a log
    entry after each commit.  Returns the device, what each snapshot
    holds, the log's region and entries, and one extent per record kind
    on media — s1's, the middle log entry's, and the older superblock
    slot, whose loss is no loss."""
    device = NvmeDevice(SimClock())
    store = ObjectStore(device)
    log = PersistentLog(store, owner_oid=LOG_OWNER, capacity=4096)
    contents, entries, targets = {}, [], {}
    for n in range(3):
        value, pages = {"n": n}, [b"s%d-page%d" % (n, i) for i in range(2)]
        meta = store.write_meta(oid=10 + n, value=value)
        refs = [store.write_page(page) for page in pages]
        snapshot = store.commit_snapshot(f"s{n}", None, [meta], refs)
        contents[snapshot.name] = (value, sorted(pages))
        append = log.append(b"entry-%d" % n)
        entries.append((append.seq, b"entry-%d" % n))
        if n == 1:
            targets = {KIND_META: meta.extent, KIND_PAGE: refs[0].extent,
                       KIND_MANIFEST: snapshot.manifest_extent, KIND_LOG: append.extent}
    store.flush_barrier()
    older = min((0, SUPERBLOCK_SLOT_SIZE),
                key=lambda offset: unpack_header(device.read(offset, HEADER_SIZE)).epoch)
    targets[KIND_SUPER] = Extent(older, SUPERBLOCK_SLOT_SIZE)
    return device, contents, log.region, entries, targets


def _flip(device, offset: int, bit: int) -> None:
    block_no, within = divmod(offset + bit // 8, 4096)
    device._blocks[block_no][within] ^= 1 << (bit % 8)


def _after_reboot(device, log_region):
    """What a reboot reads back: each recovered snapshot's metadata value
    and sorted page contents (or the class of the error its first read
    raised), and the log's crash-recovery scan."""
    fresh = ObjectStore(device)
    fresh.recover()
    survived = {}
    for snapshot in fresh.snapshots():
        _meta, records, pages, _lineage = fresh.load_manifest(snapshot)
        (value,) = [fresh.read_meta(ref) for ref in records]
        try:
            survived[snapshot.name] = (value, sorted(fresh.read_page(ref) for ref in pages))
        except ChecksumError as exc:
            survived[snapshot.name] = type(exc)
    log = PersistentLog(fresh, owner_oid=LOG_OWNER, region=log_region)
    return survived, log.scan_region()


@pytest.mark.parametrize(
    "kind, outcome",
    [
        # s1 fails verification: recovery drops it, fsck names it
        (KIND_META, "finding"),
        (KIND_MANIFEST, "finding"),
        # recovery reads no page: s1 is adopted, its page's first read
        # fails, fsck names it
        (KIND_PAGE, "read-fails"),
        # the scan stops at the bad entry, as at a torn tail
        (KIND_LOG, "log-stops"),
        # the newer slot wins, as it should
        (KIND_SUPER, "original"),
    ],
    ids=["META", "MANIFEST", "PAGE", "LOG", "SUPER"],
)
def test_a_flipped_header_bit_is_caught_or_harmless(kind, outcome):
    # KIND_FILEDATA is never written to media; the record-level test
    # above covers its header.
    device, contents, log_region, entries, targets = _populated_device()
    extent = targets[kind]
    assert _after_reboot(device, log_region) == (contents, entries)
    for bit in range(COVERED_SIZE * 8):
        _flip(device, extent.offset, bit)
        with pytest.raises(ChecksumError):
            unpack_record(device.read(extent.offset, extent.length))
        survived, replayed = _after_reboot(device, log_region)
        # never another generation's state, never a wrong page or entry
        assert all(got in (contents[name], ChecksumError)
                   for name, got in survived.items()), bit
        assert replayed == entries[: len(replayed)], bit
        if outcome in ("finding", "read-fails"):
            if outcome == "finding":
                assert sorted(survived) == ["s0", "s2"], bit
            else:
                assert survived == {**contents, "s1": ChecksumError}, bit
            findings = check_store(ObjectStore(device)).findings
            assert [f.kind for f in findings] == [CHECKSUM_CORRUPT], bit
            assert findings[0].snapshot == "s1", bit
        elif outcome == "log-stops":
            assert (survived, replayed) == (contents, entries[:1]), bit
        else:
            assert (survived, replayed) == (contents, entries), bit
            assert check_store(ObjectStore(device)).clean, bit
        _flip(device, extent.offset, bit)


class TestErasedFlash:
    """An erased cell reads ``0xFF``; Fletcher-64 works modulo 2³² − 1,
    where the word ``0xFFFFFFFF`` is ``0``, so it could not tell an
    erased word — or an erased zero page — from the zeros written."""

    def _store_page(self, page: bytes):
        device = NvmeDevice(SimClock())
        store = ObjectStore(device)
        ref = store.write_page(page)
        store.commit_snapshot("s", None, [], [ref])
        store.flush_barrier()
        return device, ref

    def _assert_caught(self, device, ref):
        with pytest.raises(ChecksumError):
            unpack_record(device.read(ref.extent.offset, ref.extent.length))
        with pytest.raises(ChecksumError):
            ObjectStore(device).read_page(ref)
        findings = check_store(ObjectStore(device)).findings
        assert [(f.kind, f.offset) for f in findings] == [
            (CHECKSUM_CORRUPT, ref.extent.offset)
        ]

    def test_one_zero_word_erased(self):
        page = b"live data".ljust(4096, b"\x00")
        device, ref = self._store_page(page)
        word_at = ref.extent.offset + HEADER_SIZE + 64
        assert device.read(word_at, 4) == b"\x00" * 4
        device.write(word_at, b"\xff" * 4)
        self._assert_caught(device, ref)

    def test_zero_page_erased(self):
        device, ref = self._store_page(bytes(4096))
        payload_at = ref.extent.offset + HEADER_SIZE
        assert device.read(payload_at, 4096) == bytes(4096)
        device.write(payload_at, b"\xff" * 4096)
        self._assert_caught(device, ref)


class TestCodec:
    CASES = [
        None,
        True,
        False,
        0,
        12345678901234567890,
        -42,
        3.14159,
        b"",
        b"\x00\xff binary",
        "",
        "unicode: αβγ→",
        [],
        [1, "two", b"three", None],
        {},
        {"a": 1, "b": [2, 3]},
        {1: "int-key", b"bytes": "bytes-key"},
        {"nested": {"deep": [{"x": b"\x00"}]}},
    ]

    @pytest.mark.parametrize("value", CASES, ids=lambda v: repr(v)[:40])
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_deterministic_dict_order(self):
        a = encode({"x": 1, "y": 2})
        b = encode({"y": 2, "x": 1})
        assert a == b

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ObjectStoreError):
            decode(encode(1) + b"junk")

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError):
            encode(object())

    def test_tuple_decodes_as_list(self):
        assert decode(encode((1, 2))) == [1, 2]


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(value=json_like)
def test_codec_roundtrip_property(value):
    assert decode(encode(value)) == value


@settings(max_examples=100, deadline=None)
@given(payload=st.binary(max_size=2048), oid=st.integers(0, 2**60),
       epoch=st.integers(0, 2**60))
def test_record_roundtrip_property(payload, oid, epoch):
    header, out = unpack_record(pack_record(KIND_META, oid, epoch, payload))
    assert out == payload
    assert header.oid == oid
    assert header.epoch == epoch


# --- the encoder against the recursive one it replaced -------------------------


def _reference_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise ValueError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _reference_encode_into(value, out: bytearray) -> None:
    """The store's original encoder (an ``isinstance`` ladder, one call
    per node), kept as the wire format's oracle."""
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        if value >= 0:
            out += b"i"
            _reference_varint(value, out)
        else:
            out += b"j"
            _reference_varint(-value, out)
    elif isinstance(value, float):
        out += b"f"
        out += struct.pack("<d", value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out += b"b"
        raw = bytes(value)
        _reference_varint(len(raw), out)
        out += raw
    elif isinstance(value, str):
        out += b"s"
        raw = value.encode("utf-8")
        _reference_varint(len(raw), out)
        out += raw
    elif isinstance(value, (list, tuple)):
        out += b"l"
        _reference_varint(len(value), out)
        for item in value:
            _reference_encode_into(item, out)
    elif isinstance(value, dict):
        out += b"d"
        _reference_varint(len(value), out)
        for key in sorted(value, key=lambda k: (str(type(k)), str(k))):
            _reference_encode_into(key, out)
            _reference_encode_into(value[key], out)
    else:
        raise TypeError(f"codec cannot encode {type(value).__name__}")


def reference_encode(value) -> bytes:
    out = bytearray()
    _reference_encode_into(value, out)
    return bytes(out)


def reference_manifest_v1(meta, records, pages) -> bytes:
    """The manifest layout v2 replaced (one small TLV list per row),
    kept as the size oracle: packed rows must not cost more media than
    TLV lists holding the same fields (a page row's codec facts too)."""
    return reference_encode({
        "meta": meta,
        "records": [[r.oid, r.extent.offset, r.extent.length] for r in records],
        "pages": [
            [p.content_hash, p.extent.offset, p.extent.length, p.length,
             p.flags, p.depth]
            for p in pages
        ],
    })


class Colour(enum.IntEnum):
    RED = 1
    BIG = 300
    NEG = -7


class Label(str):
    """A ``str`` subclass: takes the encoder's ``isinstance`` path."""


def _decoded(value):
    """What ``decode(encode(value))`` is expected to return."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (list, tuple)):
        return [_decoded(item) for item in value]
    if isinstance(value, dict):
        return {_decoded(k): _decoded(v) for k, v in value.items()}
    return value


scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from(list(Colour))
    | st.floats(allow_nan=False)
    | st.binary(max_size=200)
    | st.text(max_size=40)
    | st.text(max_size=8).map(Label)
)
keys = (
    st.text(max_size=8)
    | st.integers(-(2**65), 2**65)
    | st.binary(max_size=8)
    | st.booleans()
    | st.none()
    | st.sampled_from(list(Colour))
    | st.text(max_size=4).map(Label)
)
wire_values = st.recursive(
    scalars | st.binary(max_size=200).map(bytearray) | st.binary(max_size=200).map(memoryview),
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=5)
    | st.dictionaries(keys, children, max_size=6),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(value=wire_values)
def test_encode_matches_reference_encoder(value):
    payload = encode(value)
    assert payload == reference_encode(value)
    assert decode(payload) == _decoded(value)


@pytest.mark.parametrize("value", [
    127, 128, -127, -128, 2**63, 2**64 + 1, -(2**63) - 1, Colour.BIG, Colour.NEG,
    True, {True: 1, 2: 3}, {1: "a", "1": "b", b"1": "c", None: "d"},
    "x" * 127, "x" * 128, b"y" * 16384, list(range(200)), (1, (2, (3,))),
    {Label("k"): Label("v")}, {"b": 1, "a": 2, "B": 3, "": 4},
], ids=lambda v: repr(v)[:30])
def test_encode_boundary_cases_match_reference(value):
    assert encode(value) == reference_encode(value)
    assert decode(encode(value)) == _decoded(value)


# --- decode is total: a value or ObjectStoreError, nothing else -------------


class TestDecodeIsTotal:
    @pytest.mark.parametrize("payload, message", [
        (b"f\x00\x00", "truncated float"),
        (b"l\x01" * 5000 + b"N", "nests deeper"),
        (b"s\x02\xff\xfe", "invalid UTF-8"),
        (b"d\x01l\x00N", "unhashable dict key"),
        (b"d\x01d\x00N", "unhashable dict key"),
        (b"b\x05ab", "truncated bytes/str"),
        (b"s\x05ab", "truncated bytes/str"),
        (b"", "truncated payload"),
        (b"i", "truncated payload"),
        (b"i\x80", "truncated payload"),
        (b"l\x02N", "truncated payload"),
        (b"d\x01N", "truncated payload"),
        (b"l\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", "truncated payload"),
        (b"X", "unknown codec tag b'X'"),
        (b"NN", "1 trailing bytes"),
    ], ids=lambda v: repr(v)[:24])
    def test_malformed_payload_raises_objectstoreerror(self, payload, message):
        with pytest.raises(ObjectStoreError, match=message):
            decode(payload)

    def test_nesting_up_to_the_bound_decodes(self):
        value = None
        for _ in range(MAX_DEPTH):
            value = [value]
        assert decode(encode(value)) == value
        with pytest.raises(ObjectStoreError, match="nests deeper"):
            decode(encode([value]))

    def test_accepts_any_bytes_like(self):
        payload = encode({"a": [1, b"x"]})
        assert decode(bytearray(payload)) == decode(memoryview(payload)) == decode(payload)

    PAYLOADS = {
        "manifest": encode_manifest(
            {"group": "g", "incremental": True, "parent_snap": None, "t": 0.5},
            [MetaRef(7, Extent(16384, 300)), MetaRef(2**40, Extent(20480, 129))],
            [PageRef(b"\xd4" * 20, Extent(24576, 4136), 4096),
             PageRef(b"\x00\xff" * 10, Extent(28672, 48), 4096)],
            [Extent(32768, 241)],
        ),
        "directory": SnapshotDirectory({
            i: Snapshot(i, f"fn-{i:04d}", i, 10**9 * i, Extent(16384 * i, 517),
                        parent_id=None if i == 1 else i - 1, delta_bytes=4096)
            for i in (1, 2)
        }).payload(),
    }

    @staticmethod
    def _value_or_objectstoreerror(payload: bytes):
        try:
            return decode(payload)
        except ObjectStoreError:
            return None

    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_every_truncation(self, name):
        payload = self.PAYLOADS[name]
        assert decode(payload) is not None
        for cut in range(len(payload)):
            with pytest.raises(ObjectStoreError):
                decode(payload[:cut])

    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_every_single_byte_mutation(self, name):
        payload = self.PAYLOADS[name]
        for pos in range(len(payload)):
            mutated = bytearray(payload)
            for byte in range(256):
                if byte != payload[pos]:
                    mutated[pos] = byte
                    self._value_or_objectstoreerror(bytes(mutated))

    @settings(max_examples=300, deadline=None)
    @given(payload=st.binary(max_size=64))
    def test_arbitrary_bytes(self, payload):
        self._value_or_objectstoreerror(payload)


# --- the snapshot directory is assembled from memoized entries --------------


def _snapshot(i: int) -> Snapshot:
    return Snapshot(
        snap_id=i, name=f"fn-{i:04d}", epoch=i % 7, created_at_ns=10**9 + 1000 * i,
        manifest_extent=Extent(16384 + 4096 * i, 517),
        parent_id=None if i % 3 == 0 else i - 1,
        delta_bytes=4096 * (i % 5), logical_bytes=4096 * i,
    )


def _directory(count: int) -> SnapshotDirectory:
    directory = SnapshotDirectory()
    for i in range(count, 0, -1):  # payload order is by id, not insertion
        directory.add(_snapshot(i))
    return directory


def _fits_inline(count: int) -> bool:
    return HEADER_SIZE + len(_directory(count).payload()) <= SUPERBLOCK_SLOT_SIZE


def _last_inline_count() -> int:
    count = 1
    while _fits_inline(count + 1):
        count += 1
    return count


class TestDirectoryPayload:
    LAST_INLINE = _last_inline_count()

    @pytest.mark.parametrize("count", [0, 1, LAST_INLINE, LAST_INLINE + 1, 1000])
    def test_payload_is_the_encoded_entry_list(self, count):
        directory = _directory(count)
        entries = [directory.snapshots[i].directory_entry() for i in range(1, count + 1)]
        assert directory.payload() == encode(entries) == reference_encode(entries)
        decoded = SnapshotDirectory.decode(decode(directory.payload()))
        assert decoded.snapshots == directory.snapshots

    def test_the_boundary_counts_straddle_the_slot(self):
        assert 1 < self.LAST_INLINE < 1000
        assert _fits_inline(self.LAST_INLINE)
        assert not _fits_inline(self.LAST_INLINE + 1)

    def test_payload_tracks_add_and_remove(self):
        directory = _directory(5)
        before = directory.payload()
        directory.remove(3)
        assert directory.payload() == encode(
            [directory.snapshots[i].directory_entry() for i in (1, 2, 4, 5)]
        )
        directory.add(_snapshot(3))
        assert directory.payload() == before

    def test_snapshot_is_immutable_and_replace_gets_a_fresh_memo(self):
        snapshot = _snapshot(4)
        assert snapshot.encoded_entry == encode(snapshot.directory_entry())
        assert snapshot.encoded_entry is snapshot.encoded_entry
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshot.name = "renamed"
        renamed = dataclasses.replace(snapshot, name="renamed")
        assert renamed.encoded_entry == encode(renamed.directory_entry())
        assert renamed.encoded_entry != snapshot.encoded_entry


# --- manifest v3+: packed rows behind one encode/parse pair ------------------

MANIFEST_META = {"group": "g", "incremental": True, "parent_snap": None, "t": 0.5}
MANIFEST_RECORDS = [MetaRef(7, Extent(16384, 300)), MetaRef(2**40, Extent(20480, 129))]
MANIFEST_PAGES = [
    PageRef(b"\xd4" * 20, Extent(24576, 4132), 4096),
    PageRef(b"\x00\xff" * 10, Extent(28672, 48), 4096, flags=2, depth=3),
    PageRef(bytes(range(20)), Extent(2**40, 65535), 0, flags=255, depth=255),
]
MANIFEST_LINEAGE = [Extent(32768, 241), Extent(2**40, 2**32 - 1)]

meta_refs = st.builds(
    MetaRef, st.integers(0, 2**64 - 1),
    st.builds(Extent, st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1)),
)
page_refs = st.builds(
    PageRef, st.binary(min_size=20, max_size=20),
    st.builds(Extent, st.integers(0, 2**64 - 1), st.integers(0, 2**16 - 1)),
    st.integers(0, 2**16 - 1), st.integers(0, 255), st.integers(0, 255),
)


def _parsed_or_objectstoreerror(payload: bytes):
    """``parse_manifest`` with the lazy table drained: whatever it
    accepts must also iterate, index and slice without raising."""
    try:
        meta, records, pages, _lineage = parse_manifest(payload)
    except ObjectStoreError:
        return None
    assert list(pages) == [pages[i] for i in range(len(pages))] == pages[:]
    assert len(list(pages.rows())) == len(pages)
    return meta, records, list(pages)


class TestManifestV3:
    PAYLOAD = encode_manifest(
        MANIFEST_META, MANIFEST_RECORDS, MANIFEST_PAGES, MANIFEST_LINEAGE
    )

    def test_roundtrip(self):
        meta, records, pages, lineage = parse_manifest(self.PAYLOAD)
        assert (meta, records) == (MANIFEST_META, MANIFEST_RECORDS)
        assert lineage == MANIFEST_LINEAGE
        assert isinstance(pages, PageTable)
        assert list(pages) == MANIFEST_PAGES
        # the codec facts are not part of a ref's identity: compare them
        assert [(p.flags, p.depth) for p in pages] == [(0, 0), (2, 3), (255, 255)]
        assert [PageRef(h, Extent(off, elen), plen)
                for h, off, elen, plen in pages.rows()] == MANIFEST_PAGES

    def test_payload_is_one_versioned_dict_of_bytes_tables(self):
        value = decode(self.PAYLOAD)
        assert self.PAYLOAD == reference_encode(value)
        assert value["v"] == 4 and value["meta"] == MANIFEST_META
        assert len(value["records"]) == 20 * len(MANIFEST_RECORDS)
        assert len(value["pages"]) == 34 * len(MANIFEST_PAGES)
        assert len(value["lineage"]) == 12 * len(MANIFEST_LINEAGE)

    def test_a_table_reencodes_to_the_same_payload(self):
        assert encode_manifest(*parse_manifest(self.PAYLOAD)) == self.PAYLOAD

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(meta_refs, max_size=4),
           eager=st.lists(page_refs, max_size=12), data=st.data())
    def test_lazy_table_equals_the_eager_list(self, records, eager, data):
        meta, parsed_records, table, _lineage = parse_manifest(
            encode_manifest({"m": 1}, records, eager)
        )
        assert (meta, parsed_records) == ({"m": 1}, records)
        assert len(table) == len(eager)
        assert list(table) == list(iter(table)) == eager
        assert [(r.flags, r.depth) for r in table] == [(r.flags, r.depth) for r in eager]
        assert list(reversed(table)) == eager[::-1]
        for index in range(-len(eager), len(eager)):
            assert table[index] == eager[index]
        for index in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                table[index]
        bound = st.none() | st.integers(-15, 15)
        cut = slice(data.draw(bound), data.draw(bound),
                    data.draw(st.none() | st.integers(-3, 3).filter(bool)))
        assert table[cut] == eager[cut]
        if eager:
            assert eager[0] in table and table.index(eager[-1]) == eager.index(eager[-1])

    def test_the_table_is_read_only(self):
        _meta, _records, table, _lineage = parse_manifest(self.PAYLOAD)
        with pytest.raises(TypeError):
            table[0] = MANIFEST_PAGES[0]
        with pytest.raises(AttributeError):
            table.extra = 1

    def test_every_truncation(self):
        for cut in range(len(self.PAYLOAD)):
            with pytest.raises(ObjectStoreError):
                parse_manifest(self.PAYLOAD[:cut])

    def test_every_single_byte_mutation(self):
        survivors = 0
        for pos in range(len(self.PAYLOAD)):
            mutated = bytearray(self.PAYLOAD)
            for byte in range(256):
                if byte != self.PAYLOAD[pos]:
                    mutated[pos] = byte
                    survivors += _parsed_or_objectstoreerror(bytes(mutated)) is not None
        # a flipped bit inside a row is a different, well-formed row
        assert survivors > 255 * 32 * len(MANIFEST_PAGES) // 2

    @settings(max_examples=300, deadline=None)
    @given(payload=st.binary(max_size=96))
    def test_arbitrary_bytes(self, payload):
        _parsed_or_objectstoreerror(payload)

    @pytest.mark.parametrize("change, message", [
        ({"v": None}, "KeyError"),
        ({"v": 1}, "manifest version 1"),
        ({"v": 2}, "manifest version 2"),
        ({"v": 3}, "manifest version 3"),
        ({"v": "4"}, "manifest version '4'"),
        ({"pages": None}, "KeyError"),
        ({"records": None}, "KeyError"),
        ({"pages": [[b"h" * 20, 1, 2, 3]]}, "not bytes"),
        ({"records": "r" * 20}, "not bytes"),
        ({"pages": b"p" * 33}, "not whole rows"),
        ({"records": b"r" * 19}, "not whole rows"),
        ({"lineage": None}, "KeyError"),
        ({"lineage": [[32768, 241]]}, "not bytes"),
        ({"lineage": b"l" * 13}, "not whole rows"),
    ], ids=lambda v: repr(v)[:32])
    def test_wrong_shape_raises_objectstoreerror(self, change, message):
        value = {**decode(self.PAYLOAD), **change}
        value = {k: v for k, v in value.items() if v is not None}
        with pytest.raises(ObjectStoreError, match=f"malformed manifest.*{message}"):
            parse_manifest(encode(value))

    @pytest.mark.parametrize("payload", [encode([1, 2]), encode(7), encode(None)])
    def test_non_dict_payload_raises_objectstoreerror(self, payload):
        with pytest.raises(ObjectStoreError, match="malformed manifest"):
            parse_manifest(payload)

    @pytest.mark.parametrize("records, pages", [
        ([], [PageRef(b"short", Extent(16384, 64), 64)]),
        ([], [PageRef(b"x" * 21, Extent(16384, 64), 64)]),
        ([], [PageRef("h" * 20, Extent(16384, 64), 64)]),
        ([], [PageRef(b"h" * 20, Extent(16384, 2**16), 64)]),
        ([], [PageRef(b"h" * 20, Extent(16384, 64), 2**16)]),
        ([], [PageRef(b"h" * 20, Extent(-1, 64), 64)]),
        ([], [PageRef(b"h" * 20, Extent(16384, 64), 64, flags=256)]),
        ([], [PageRef(b"h" * 20, Extent(16384, 64), 64, depth=-1)]),
        ([MetaRef(2**64, Extent(16384, 64))], []),
        ([MetaRef(1, Extent(16384, 2**32))], []),
        ([MetaRef(1, Extent("far", 64))], []),
    ], ids=lambda v: repr(v)[:48])
    def test_a_ref_no_row_can_hold_raises_at_encode(self, records, pages):
        with pytest.raises(ObjectStoreError, match="does not encode"):
            encode_manifest(None, records, pages)

    @pytest.mark.parametrize("extent", [
        Extent(2**64, 64), Extent(16384, 2**32), Extent(-1, 64), Extent("far", 64),
    ], ids=repr)
    def test_a_lineage_extent_no_row_can_hold_raises_at_encode(self, extent):
        with pytest.raises(ObjectStoreError, match="does not encode"):
            encode_manifest(None, [], [], [extent])
