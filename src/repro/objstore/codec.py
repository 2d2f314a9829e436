"""Inline page compression + delta encoding for the write path.

A 1-byte dirty page costs a full 4 KiB page write through the flush
path — the write amplification "Fine-Grain Checkpointing with
In-Cache-Line Logging" collapses with sub-page logging.  This module
is the object store's classify/encode stage: per page record it picks

- ``ENC_RAW`` — store the payload as-is (a full page on media);
- ``ENC_ZLIB`` — store a compressed stream when the bytes saved buy
  back more device transfer time than the compressor costs in CPU
  (JASS: trade CPU for bytes only when the device is the bottleneck,
  which is what the calibrated :class:`~repro.hw.specs.CpuCostModel`
  and :class:`~repro.hw.specs.DeviceSpec` numbers decide);
- ``ENC_DELTA`` — store only the dirty extents against a base page
  already in the store (incremental checkpoints: the COW layer tracks
  which byte ranges each replacement frame dirtied, so a small poke
  persists as a handful of bytes plus a base reference).

Delta chains are depth-bounded (:data:`MAX_DELTA_CHAIN`) so a lazy
restore never walks an unbounded reconstruction chain; a page whose
base already sits at the bound is written in full, re-anchoring the
chain.  The codec arms itself only when the device's queue-model is
armed (``spec.queue_depth > 0``): the legacy flat-latency stores keep
writing byte-identical RAW records.

Decode is the exact inverse and lives here too so the read paths
(:meth:`~repro.objstore.store.ObjectStore.read_page`, coalesced
restore reads, fsck, scrub) share one reconstruction routine.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ChecksumError, ObjectStoreError
from repro.hw.specs import CpuCostModel, DeviceSpec
from repro.objstore.record import (
    ENC_DELTA,
    ENC_RAW,
    ENC_ZLIB,
    HEADER_SIZE,
    decode,
    encode,
)
from repro.units import PAGE_SIZE

#: longest base chain a delta record may extend; a page whose base is
#: already this deep is written in full instead (chain re-anchor)
MAX_DELTA_CHAIN = 4

#: a delta is only worth it while the dirty footprint stays below this
#: — past half a page the full (compressible) payload wins
DELTA_MAX_DIRTY = PAGE_SIZE // 2

#: zlib level: fastest setting — the cost model is calibrated for an
#: LZ4-class compressor, not for ratio-chasing
COMPRESS_LEVEL = 1


class DeltaChainTooDeep(ObjectStoreError):
    """Reconstruction walked more than :data:`MAX_DELTA_CHAIN` hops —
    the writer's re-anchor bound was violated (corruption, or records
    from a future format)."""


class BrokenDeltaBase(ObjectStoreError):
    """A delta's base could not be resolved: its hash names no usable
    record, or the base itself fails to decode or verify.  Raised on the
    *delta*; the base's own damage is reported against its own ref."""

    def __init__(self, base_hash: bytes):
        self.base_hash = base_hash
        super().__init__(f"unresolvable delta base {base_hash.hex()[:12]}")


@dataclass(frozen=True)
class EncodedPage:
    """One classify/encode decision for one page record."""

    flags: int
    #: bytes that become the record payload
    stored: bytes
    #: on-media logical footprint (header + stored payload for encoded
    #: records; header + full page for RAW — payloads are stored
    #: compactly in simulation but a RAW page occupies a page slot)
    media_bytes: int
    #: CPU to charge the writer for this encoding
    cpu_ns: float
    #: delta chain depth of the new record (0 for RAW/ZLIB)
    depth: int = 0
    #: content hash of the base page (``ENC_DELTA`` only)
    base_hash: Optional[bytes] = None

    @property
    def bytes_saved(self) -> int:
        return (HEADER_SIZE + PAGE_SIZE) - self.media_bytes


def coalesce_extents(extents) -> list[tuple[int, int]]:
    """Merge overlapping/adjacent ``(offset, nbytes)`` dirty extents."""
    merged: list[list[int]] = []
    for offset, nbytes in sorted((int(o), int(n)) for o, n in extents):
        end = offset + nbytes
        if merged and offset <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([offset, end])
    return [(start, end - start) for start, end in merged]


class PageCodec:
    """The calibrated classify/encode policy for one store's device.

    ``plan`` weighs CPU ns against device transfer ns saved using the
    store's own :class:`DeviceSpec` bandwidth — the same page can be
    worth compressing on a slow channel and not on a fast one.
    """

    def __init__(self, spec: DeviceSpec, cpu: CpuCostModel,
                 enabled: Optional[bool] = None):
        self.spec = spec
        self.cpu = cpu
        #: armed alongside the device queue model; RAW-only otherwise
        self.enabled = spec.queue_depth > 0 if enabled is None else enabled
        #: transfer cost of one byte on this record's submission queue
        self._device_ns_per_byte = (
            1e9 / spec.write_bandwidth if spec.write_bandwidth else 0.0
        )

    # -- classify / encode -----------------------------------------------------

    def plan(self, payload: bytes, *,
             base_hash: Optional[bytes] = None,
             base_depth: int = 0,
             dirty_extents=None) -> EncodedPage:
        """Pick the cheapest encoding for one page payload.

        ``base_hash`` must already resolve in the store's dedup index
        (the caller checks); ``dirty_extents`` is the COW layer's
        ``(offset, nbytes)`` list, or None when tracking overflowed.
        """
        raw = EncodedPage(
            flags=ENC_RAW, stored=payload,
            media_bytes=HEADER_SIZE + PAGE_SIZE, cpu_ns=0.0,
        )
        if not self.enabled:
            return raw
        delta = self._plan_delta(payload, base_hash, base_depth, dirty_extents)
        if delta is not None:
            return delta
        return self._plan_compress(payload, raw)

    def _plan_delta(self, payload: bytes, base_hash: Optional[bytes],
                    base_depth: int, dirty_extents) -> Optional[EncodedPage]:
        if base_hash is None or not dirty_extents:
            return None
        if base_depth >= MAX_DELTA_CHAIN:
            # Chain at the bound: force a full-page write so lazy
            # restores never reconstruct through more than
            # MAX_DELTA_CHAIN hops.
            return None
        extents = coalesce_extents(dirty_extents)
        if sum(nbytes for _, nbytes in extents) > DELTA_MAX_DIRTY:
            return None
        padded = payload + bytes(PAGE_SIZE - len(payload))
        stored = encode({
            "base": base_hash,
            "depth": base_depth + 1,
            "len": len(payload),
            "ext": [[offset, padded[offset:offset + nbytes]]
                    for offset, nbytes in extents],
        })
        if HEADER_SIZE + len(stored) >= HEADER_SIZE + PAGE_SIZE:
            return None
        return EncodedPage(
            flags=ENC_DELTA, stored=stored,
            media_bytes=HEADER_SIZE + len(stored),
            cpu_ns=self.cpu.delta_encode_ns,
            depth=base_depth + 1, base_hash=base_hash,
        )

    def _plan_compress(self, payload: bytes, raw: EncodedPage) -> EncodedPage:
        compressed = zlib.compress(payload, COMPRESS_LEVEL)
        saved = PAGE_SIZE - len(compressed)
        if saved <= 0:
            # Incompressible (already-random) content: the stream grew.
            return raw
        if saved * self._device_ns_per_byte <= self.cpu.page_compress_ns:
            # The device would drain the full page faster than the CPU
            # can shrink it — below the JASS crossover, stay RAW.
            return raw
        return EncodedPage(
            flags=ENC_ZLIB, stored=compressed,
            media_bytes=HEADER_SIZE + len(compressed),
            cpu_ns=self.cpu.page_compress_ns,
        )

    # -- decode ----------------------------------------------------------------

    def decode_page(self, flags: int, stored: bytes,
                    resolve_base: Callable[[bytes], bytes],
                    _depth: int = 0) -> bytes:
        """Reconstruct page content from a stored record payload.

        ``resolve_base`` maps a base content hash to *decoded* base
        content; the caller bounds recursion by raising past
        :data:`MAX_DELTA_CHAIN` (see :func:`delta_info`).
        """
        if flags == ENC_RAW:
            return stored
        if flags == ENC_ZLIB:
            try:
                return zlib.decompress(stored)
            except zlib.error as exc:
                raise ChecksumError(
                    f"compressed page payload does not inflate: {exc}"
                ) from exc
        if flags == ENC_DELTA:
            if _depth >= MAX_DELTA_CHAIN:
                raise DeltaChainTooDeep(
                    f"delta chain deeper than {MAX_DELTA_CHAIN}"
                )
            base_hash, _d, length, extents = delta_info(stored)
            base = resolve_base(base_hash)
            buf = bytearray(base) + bytes(PAGE_SIZE - len(base))
            for offset, data in extents:
                buf[offset:offset + len(data)] = data
            return bytes(buf[:length])
        raise ObjectStoreError(f"unknown page encoding {flags}")


def delta_info(stored: bytes) -> tuple[bytes, int, int, list]:
    """Parse a delta payload: (base hash, chain depth, logical length,
    [[offset, data], ...]).  Raises on any malformed shape so torn or
    corrupt delta records classify as corruption, not crashes."""
    try:
        value = decode(stored)
        base_hash = value["base"]
        depth = int(value["depth"])
        length = int(value["len"])
        extents = value["ext"]
        if not isinstance(base_hash, bytes) or not isinstance(extents, list):
            raise TypeError("delta fields have wrong types")
        for item in extents:
            offset, data = item
            if (not isinstance(data, bytes) or int(offset) < 0
                    or int(offset) + len(data) > PAGE_SIZE):
                raise ValueError("delta extent out of page bounds")
    except (ObjectStoreError, KeyError, ValueError, TypeError) as exc:
        raise ChecksumError(f"malformed delta payload: {exc}") from exc
    return base_hash, depth, length, extents
