"""Offline fsck (repro.objstore.fsck): detect, classify, repair.

Corruption fixtures come from ``repro.cli.recovery`` so the worked
examples in RECOVERY.md, the ``sls fsck --inject`` subcommand, and
these tests share one set of injection recipes — a damage class the
docs demonstrate is, by construction, a damage class the suite pins.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli.recovery import INJECTIONS, build_demo_store, inject
from repro.errors import ObjectStoreError
from repro.fault.names import FP_FSCK_REPAIR
from repro.fault.registry import FailpointRegistry, FaultAction
from repro.objstore import ObjectStore, check_store, repair_store
from repro.objstore.block import DATA_BASE
from repro.objstore.fsck import (
    CHECKSUM_CORRUPT,
    DANGLING_REF,
    DELTA_BROKEN_BASE,
    DELTA_CHAIN_TOO_DEEP,
    DOUBLE_ALLOC,
    LOST_AND_FOUND,
    ORPHAN_EXTENT,
    REFCOUNT_DRIFT,
    Fsck,
)

#: which finding classes each named injection must produce
EXPECTED_CLASSES = {
    "checksum": {CHECKSUM_CORRUPT},
    "refcount": {REFCOUNT_DRIFT},
    "orphan": {ORPHAN_EXTENT},
    # aiming a second ref at demo-0's page is both a double claim and,
    # because the extent holds a page record where a metadata record
    # was referenced, a dangling ref from the evil snapshot
    "double-alloc": {DANGLING_REF, DOUBLE_ALLOC},
    "dangling": {DANGLING_REF},
    "delta-base": {DELTA_BROKEN_BASE},
    "delta-deep": {DELTA_CHAIN_TOO_DEEP},
}


def snapshot_payloads(store):
    """name -> sorted page payloads, for byte-identical comparisons."""
    out = {}
    for snapshot in store.snapshots():
        _meta, _records, pages, _lineage = store.load_manifest(snapshot)
        payloads = store.read_pages_coalesced(pages)
        out[snapshot.name] = sorted(payloads[p.content_hash] for p in pages)
    return out


def zero_superblocks(device):
    device.discard(0, DATA_BASE)


class TestDetect:
    def test_clean_store_fscks_clean(self):
        _device, store, _obs = build_demo_store()
        report = check_store(store)
        assert report.clean
        assert report.snapshots_checked == 3
        assert report.records_verified >= 3
        assert report.pages_verified >= 3
        assert report.bytes_verified > 0

    @pytest.mark.parametrize("kind", INJECTIONS)
    def test_injection_detected_and_classified(self, kind):
        device, store, _obs = build_demo_store()
        inject(device, store, kind)
        report = check_store(store)
        assert not report.clean
        assert set(report.counts()) == EXPECTED_CLASSES[kind]
        # a bare check never repairs anything
        assert not any(f.repaired for f in report.findings)

    def test_report_serializes(self):
        device, store, _obs = build_demo_store()
        inject(device, store, "checksum")
        report = check_store(store)
        value = json.loads(report.to_json())
        assert value["clean"] is False
        assert value["findings"][0]["kind"] == CHECKSUM_CORRUPT
        assert "fsck" in report.summary()


class TestRepair:
    @pytest.mark.parametrize("kind", INJECTIONS)
    def test_repair_is_complete_and_idempotent(self, kind):
        device, store, _obs = build_demo_store()
        inject(device, store, kind)
        report = repair_store(store)
        assert report.findings and report.repaired_all
        # idempotence: the second pass has nothing left to find
        second = check_store(store)
        assert second.clean, second.summary()

    def test_intact_snapshots_restore_byte_identical(self):
        device, store, _obs = build_demo_store()
        baseline = snapshot_payloads(store)
        inject(device, store, "checksum")  # damages demo-1
        report = repair_store(store)
        assert report.repaired_all
        after = snapshot_payloads(store)
        assert after["demo-0"] == baseline["demo-0"]
        assert after["demo-2"] == baseline["demo-2"]
        # demo-1 was quarantined: its salvageable pages survive under a
        # lost+found name, every one byte-identical to the original
        assert "demo-1" not in after
        (quarantine,) = report.quarantined
        assert quarantine.startswith(LOST_AND_FOUND + "demo-1")
        salvaged = after[quarantine]
        assert salvaged
        assert all(page in baseline["demo-1"] for page in salvaged)

    def test_orphan_repair_reclaims_the_leak(self):
        device, store, _obs = build_demo_store()
        allocated_before = store.allocator.allocated_bytes
        inject(device, store, "orphan")
        report = repair_store(store)
        assert report.repaired_all
        assert report.bytes_reclaimed >= 4096
        assert store.allocator.allocated_bytes == allocated_before

    def test_repair_requires_quiescence(self):
        _device, store, _obs = build_demo_store()
        store.write_page(b"buffered" * 512)
        with pytest.raises(ObjectStoreError, match="quiescent"):
            Fsck(store, repair=True).run()
        # the read-only check has no such requirement
        check_store(store)

    def test_lost_superblock_is_report_only(self):
        device, store, _obs = build_demo_store()
        zero_superblocks(device)
        report = repair_store(store)
        assert not report.clean
        assert report.findings[0].kind == CHECKSUM_CORRUPT
        assert report.findings[0].action == "report-only"
        assert not report.repaired_all
        # repair must not have "fixed" this by writing a fresh (empty)
        # superblock over the dead slots
        assert device.read(0, 4096) == bytes(4096)


class TestRepairCrash:
    def test_crash_at_repair_failpoint_is_recoverable(self):
        device, store, _obs = build_demo_store()
        inject(device, store, "checksum")
        faults = FailpointRegistry(device.clock, seed=7)
        store.attach_faults(faults)
        faults.arm(FP_FSCK_REPAIR, FaultAction("fail"))
        with pytest.raises(ObjectStoreError):
            repair_store(store)
        device.crash()  # the power cut, at the repair failpoint
        # reopen cold off the media and repair again: the failpoint
        # fires before any write, so the damage is exactly as injected
        reopened = ObjectStore(device)
        report = repair_store(reopened)
        assert report.findings and report.repaired_all
        assert check_store(reopened).clean

    def test_fail_action_surfaces_as_store_error(self):
        device, store, _obs = build_demo_store()
        inject(device, store, "orphan")
        faults = FailpointRegistry(device.clock, seed=7)
        store.attach_faults(faults)
        faults.arm(FP_FSCK_REPAIR, FaultAction("fail"))
        with pytest.raises(ObjectStoreError):
            repair_store(store)


class TestObservability:
    def test_repair_exports_counters(self):
        device, store, obs = build_demo_store()
        inject(device, store, "refcount")
        repair_store(store)
        by_name = {
            inst.name: inst.value for inst in obs.registry.collect()
        }
        assert by_name["objstore.fsck.findings_total"] == 1
        assert by_name["objstore.fsck.repairs_total"] == 1


# -- interval arithmetic behind the allocator audit ------------------------------

#: sorted, disjoint, possibly abutting half-open intervals
INTERVALS = st.lists(st.integers(0, 48), max_size=16).map(
    lambda points: Fsck._union(
        list(zip(sorted(points)[::2], sorted(points)[1::2]))
    )
)


def subtract_by_rescanning(base, cut):
    """The reference: every base interval against every cut interval."""
    out = []
    for start, end in base:
        pos = start
        for c_start, c_end in cut:
            if c_end <= pos or c_start >= end:
                continue
            if c_start > pos:
                out.append((pos, c_start))
            pos = max(pos, c_end)
        if pos < end:
            out.append((pos, end))
    return out


@given(base=INTERVALS, cut=INTERVALS)
def test_subtract_with_a_cursor_matches_rescanning(base, cut):
    assert Fsck._subtract(base, cut) == subtract_by_rescanning(base, cut)
