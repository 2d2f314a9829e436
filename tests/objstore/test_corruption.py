"""Corruption fuzzing: recovery never crashes, never serves bad data.

The store's integrity contract: whatever bytes get flipped on the
medium, a snapshot recovery keeps reads back exactly or raises a
catalogued error on access (recovery reads metadata only, so a decayed
page surfaces on its first read, and fsck and scrub report it) — it
must never return silently corrupted content or raise an unhandled
error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AuroraError, ChecksumError
from repro.hw.nvme import NvmeDevice
from repro.objstore import Scrubber, check_store
from repro.objstore.store import ObjectStore
from repro.objstore.walk import CHECKSUM_CORRUPT
from repro.sim.clock import SimClock


def build_device(n_snapshots=3, pages_per_snap=4):
    clock = SimClock()
    device = NvmeDevice(clock)
    store = ObjectStore(device)
    expected = {}
    for s in range(n_snapshots):
        payloads = [b"snap%d-page%d" % (s, i) for i in range(pages_per_snap)]
        refs = [store.write_page(p) for p in payloads]
        meta = store.write_meta(oid=s, value={"snap": s})
        store.commit_snapshot(f"s{s}", meta={"s": s}, records=[meta],
                              pages=refs)
        expected[f"s{s}"] = sorted(payloads)
    store.flush_barrier()
    return device, expected


@settings(max_examples=40, deadline=None)
@given(
    flips=st.lists(
        st.tuples(st.integers(0, 200_000), st.integers(1, 255)),
        min_size=1, max_size=8,
    )
)
def test_recovery_detects_or_survives_corruption(flips):
    device, expected = build_device()
    # Flip bytes directly on the media.
    for offset, xor in flips:
        device.flip(offset, xor)
    fresh = ObjectStore(device)
    report = fresh.recover()  # must not raise
    for snapshot in fresh.snapshots():
        # Anything recovery kept must read back bit-exact.
        try:
            _meta, records, pages, _lineage = fresh.load_manifest(snapshot)
            got = sorted(fresh.read_page(r) for r in pages)
        except AuroraError:
            # Detected on access — acceptable: never silent corruption.
            continue
        if snapshot.name in expected:
            assert got == expected[snapshot.name]
    assert report.snapshots_recovered + report.snapshots_discarded <= len(expected)


class TestTargetedCorruption:
    def test_corrupt_page_record_is_adopted_and_fails_its_read(self):
        device, expected = build_device(n_snapshots=1)
        live = ObjectStore(device)
        live.recover()
        pages = list(live.load_manifest(live.snapshots()[0]).pages)
        # the live store reads its image once: a clean copy is cached
        assert sorted(live.read_page(ref) for ref in pages) == expected["s0"]
        # Corrupt the first page record's payload on the media.
        bad = pages[0]
        device.flip(bad.extent.offset + 40)

        # a reboot reads no page: the snapshot is adopted whole ...
        fresh = ObjectStore(device)
        report = fresh.recover()
        assert (report.snapshots_recovered, report.snapshots_discarded) == (1, 0)
        # ... and the decayed page fails its first read, never reads wrong
        with pytest.raises(ChecksumError):
            fresh.read_page(bad)
        assert [fresh.read_page(ref) for ref in pages[1:]] \
            == [live.read_page(ref) for ref in pages[1:]]
        (finding,) = check_store(fresh).findings
        assert (finding.kind, finding.offset) == (CHECKSUM_CORRUPT, bad.extent.offset)

        # scrub on the live store counts it and drops the cached copy
        assert live.pagecache.peek(bad.content_hash) is not None
        assert Scrubber(live).run().errors == 1
        assert live.pagecache.peek(bad.content_hash) is None
        with pytest.raises(ChecksumError):
            live.read_page(bad)

    def test_corrupt_both_superblocks_recovers_empty(self):
        device, expected = build_device(n_snapshots=2)
        for slot_base in (0, 8 * 1024):
            device.flip(slot_base)
        fresh = ObjectStore(device)
        report = fresh.recover()
        assert report.snapshots_recovered == 0
        assert fresh.snapshots() == []

    def test_corrupt_one_superblock_uses_other(self):
        device, expected = build_device(n_snapshots=2)
        # Generation 2 lives in slot 0 (gen % 2); kill it, gen 1 survives.
        device.flip(0)
        fresh = ObjectStore(device)
        report = fresh.recover()
        assert report.generation == 1
        assert [s.name for s in fresh.snapshots()] == ["s0"]
