"""On-disk record format and the metadata codec.

Records are self-delimiting: a fixed header (magic, kind, flags,
object id, epoch, payload length, checksum) followed by the payload.
The checksum (:func:`~repro.objstore.checksum.crc32_adler32`) covers
every other header byte and the whole payload, so a record verifies as
a unit — no header field is trusted unchecked.  Metadata payloads are
encoded with a small deterministic binary codec (:func:`encode` /
:func:`decode`) supporting the JSON-ish types serializers produce —
dicts, lists, ints, bytes, str, bool, None, floats — with no pickling
(checkpoints must be loadable by a different process safely, e.g. on
``sls recv``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ChecksumError, ObjectStoreError
# fletcher64 is unused here; the e2e tracer's harness test reads ``record.fletcher64``
from repro.objstore.checksum import crc32_adler32, fletcher64  # noqa: F401

RECORD_MAGIC = 0x41555230  # "AUR0"
_HEADER = struct.Struct("<IHHQQIQ")  # magic, kind, flags, oid, epoch, len, cksum
HEADER_SIZE = _HEADER.size
#: the header bytes the checksum covers: everything before the checksum
_COVERED = struct.Struct("<IHHQQI")
COVERED_SIZE = _COVERED.size
_CHECKSUM = struct.Struct("<Q")

# record kinds
KIND_META = 1       # serialized kernel-object metadata
KIND_PAGE = 2       # 4 KiB page payload
KIND_MANIFEST = 3   # checkpoint manifest
KIND_LOG = 4        # sls_ntflush append-only log entry
KIND_SUPER = 5      # superblock
KIND_FILEDATA = 6   # SLSFS file extent

# page payload encodings, carried in the header ``flags`` field.  RAW
# is 0 so every record written before the codec existed decodes as an
# uncompressed payload — the flags word was always zero historically.
ENC_RAW = 0         # payload is the page content itself
ENC_ZLIB = 1        # payload is a zlib stream of the page content
ENC_DELTA = 2       # payload is a dirty-extent delta against a base page


@dataclass(frozen=True)
class RecordHeader:
    kind: int
    oid: int
    epoch: int
    length: int
    checksum: int
    flags: int = 0


def pack_record(kind: int, oid: int, epoch: int, payload: bytes, flags: int = 0) -> bytes:
    covered = _COVERED.pack(RECORD_MAGIC, kind, flags, oid, epoch, len(payload))
    return b"".join((covered, _CHECKSUM.pack(crc32_adler32(covered, payload)), payload))


def unpack_header(raw: bytes) -> RecordHeader:
    if len(raw) < HEADER_SIZE:
        raise ObjectStoreError("short record header")
    magic, kind, flags, oid, epoch, length, checksum = _HEADER.unpack_from(raw)
    if magic != RECORD_MAGIC:
        raise ChecksumError(f"bad record magic {magic:#x}")
    return RecordHeader(
        kind=kind, oid=oid, epoch=epoch, length=length, checksum=checksum, flags=flags
    )


def unpack_record(raw: bytes) -> tuple[RecordHeader, bytes]:
    header = unpack_header(raw)
    payload = raw[HEADER_SIZE : HEADER_SIZE + header.length]
    if len(payload) != header.length:
        raise ChecksumError("truncated record payload")
    if crc32_adler32(raw[:COVERED_SIZE], payload) != header.checksum:
        raise ChecksumError(f"checksum mismatch for oid {header.oid}")
    return header, payload


# --- metadata codec -----------------------------------------------------------

# wire tags (their byte values): None, True, False, int >= 0, int < 0,
# float, bytes, str, list, dict
_NONE, _TRUE, _FALSE, _INT, _NEGINT, _FLOAT, _BYTES, _STR, _LIST, _DICT = b"NTFijfbsld"
_VARINT_TAGS = frozenset({_INT, _NEGINT, _BYTES, _STR, _LIST, _DICT})  # a varint follows
_CONSTANTS = {_NONE: None, _TRUE: True, _FALSE: False}

_DOUBLE = struct.Struct("<d")
#: types the encoder dispatches on directly; anything else (a subclass
#: such as an ``IntEnum``, ``bytearray``/``memoryview``, ``tuple``) is
#: first mapped to one of these by :func:`_wire_type`
_WIRE_TYPES = frozenset({type(None), bool, int, float, bytes, str, list, dict})

#: deepest container nesting :func:`decode` follows before rejecting
#: the payload.  The deepest value the tree writes nests 8 levels (a
#: serialized process group's metadata record; measured over tier-1,
#: ``sls bench`` and the e2e benchmark), so no honest payload comes
#: near it, and hostile ones stay far inside the recursion limit.
MAX_DEPTH = 64


def _enc_varint(value: int, out: bytearray) -> None:
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _wire_type(value) -> type:
    for kind in (int, float, bytes, str, list, dict):
        if isinstance(value, kind):
            return kind
    if isinstance(value, (bytearray, memoryview)):
        return bytes
    if isinstance(value, tuple):
        return list
    raise TypeError(f"codec cannot encode {type(value).__name__}")


def _encode_items(items, out: bytearray) -> None:
    """Append the encoding of each of ``items``: scalars inline, one
    call per container (a call per node was half the encoder's cost)."""
    for value in items:
        kind = type(value)
        if kind not in _WIRE_TYPES:
            kind = _wire_type(value)
        if kind is int:
            if value < 0:
                out.append(_NEGINT)
                value = -value
            else:
                out.append(_INT)
            if value < 0x80:
                out.append(value)
            else:
                _enc_varint(value, out)
        elif kind is str or kind is bytes:
            if kind is str:
                out.append(_STR)
                value = value.encode("utf-8")
            else:
                out.append(_BYTES)
                if type(value) is not bytes:
                    value = bytes(value)
            size = len(value)
            if size < 0x80:
                out.append(size)
            else:
                _enc_varint(size, out)
            out += value
        elif kind is list or kind is dict:
            out.append(_LIST if kind is list else _DICT)
            size = len(value)
            if size < 0x80:
                out.append(size)
            else:
                _enc_varint(size, out)
            if kind is dict:
                # Deterministic ordering: identical state encodes
                # identically, which dedup and replication diffing rely
                # on.  All-``str`` keys sort as themselves, same order.
                if set(map(type, value)) <= {str}:
                    keys = sorted(value)
                else:
                    keys = sorted(value, key=lambda k: (str(type(k)), str(k)))
                value = [x for key in keys for x in (key, value[key])]
            _encode_items(value, out)
        elif value is None:
            out.append(_NONE)
        elif kind is bool:
            out.append(_TRUE if value else _FALSE)
        else:
            out.append(_FLOAT)
            out += _DOUBLE.pack(value)


def encode(value) -> bytes:
    """Encode a metadata value deterministically."""
    out = bytearray()
    _encode_items((value,), out)
    return bytes(out)


def encode_list_of(encoded_items: list[bytes]) -> bytes:
    """``encode([v0, v1, ...])`` given each ``encode(vi)`` — for a
    caller that keeps its items encoded (the snapshot directory)."""
    head = bytearray((_LIST,))
    _enc_varint(len(encoded_items), head)
    return bytes(head) + b"".join(encoded_items)


def _decode_items(data: bytes, pos: int, count: int, depth: int) -> tuple[list, int]:
    """Decode ``count`` consecutive values from ``pos``: scalars inline,
    one call per container.  Running off the end raises ``IndexError``
    (mapped by :func:`decode`); every other fault is caught here."""
    if depth > MAX_DEPTH:
        raise ObjectStoreError(f"payload nests deeper than {MAX_DEPTH}")
    items = []
    append = items.append
    for _ in range(count):
        tag = data[pos]
        if tag in _VARINT_TAGS:
            number = data[pos + 1]
            pos += 2
            if number > 0x7F:
                number &= 0x7F
                shift = 7
                while True:
                    byte = data[pos]
                    pos += 1
                    number |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
            if tag == _INT:
                append(number)
            elif tag == _BYTES or tag == _STR:
                end = pos + number
                if end > len(data):
                    raise ObjectStoreError("truncated bytes/str")
                try:
                    append(data[pos:end] if tag == _BYTES else str(data[pos:end], "utf-8"))
                except UnicodeDecodeError as exc:
                    raise ObjectStoreError(f"invalid UTF-8 in str: {exc}") from exc
                pos = end
            elif tag == _LIST:
                value, pos = _decode_items(data, pos, number, depth + 1)
                append(value)
            elif tag == _DICT:
                flat, pos = _decode_items(data, pos, 2 * number, depth + 1)
                try:
                    append(dict(zip(flat[::2], flat[1::2])))
                except TypeError as exc:
                    raise ObjectStoreError(f"unhashable dict key: {exc}") from exc
            else:
                append(-number)
        elif tag == _FLOAT:
            if pos + 9 > len(data):
                raise ObjectStoreError("truncated float")
            append(_DOUBLE.unpack_from(data, pos + 1)[0])
            pos += 9
        elif tag in _CONSTANTS:
            append(_CONSTANTS[tag])
            pos += 1
        else:
            raise ObjectStoreError(f"unknown codec tag {bytes((tag,))!r}")
    return items, pos


def shaped(value, fields: dict) -> bool:
    """Whether a decoded ``value`` is a dict holding every key of
    ``fields`` with exactly the type it names — the shape check a reader
    owes a record that checksummed, or a message off the network."""
    return isinstance(value, dict) and all(
        type(value.get(name)) is kind for name, kind in fields.items()
    )


def decode(payload: bytes):
    """Decode a metadata value.  Total: any payload yields a value or
    :class:`ObjectStoreError` (truncation, trailing garbage, unknown
    tag, bad UTF-8, unhashable key, nesting past :data:`MAX_DEPTH`)."""
    if type(payload) is not bytes:
        payload = bytes(payload)
    try:
        (value,), pos = _decode_items(payload, 0, 1, 0)
    except IndexError:
        raise ObjectStoreError("truncated payload") from None
    if pos != len(payload):
        raise ObjectStoreError(f"{len(payload) - pos} trailing bytes after value")
    return value
