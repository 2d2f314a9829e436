"""Online scrub (repro.objstore.scrub): bounded background verify.

The scrubber's contract: visit every reachable extent exactly once in
media order, read over the idlest submission queues, never write, and
report damage in fsck's finding vocabulary.
"""

import copy
import hashlib

import pytest

from repro.cli.recovery import build_demo_store, inject
from repro.errors import ObjectStoreError
from repro.fault.names import FP_SCRUB_STEP
from repro.fault.registry import FailpointRegistry, FaultAction
from repro.hw.nvme import NvmeDevice
from repro.objstore import ObjectStore, Scrubber
from repro.objstore.fsck import CHECKSUM_CORRUPT
from repro.objstore.record import KIND_PAGE, pack_record
from repro.objstore.snapshot import PageRef
from repro.sim.clock import SimClock


def queued_store() -> ObjectStore:
    return ObjectStore(NvmeDevice(SimClock(), queue_depth=8, num_queues=4))


class TestScrub:
    def test_clean_store_scrubs_clean(self):
        _device, store, _obs = build_demo_store()
        scrubber = Scrubber(store, batch_extents=4)
        stats = scrubber.run()
        assert stats.done
        assert stats.errors == 0
        assert stats.extents_total > 0
        assert stats.extents_verified == stats.extents_total
        assert stats.progress_permille == 1000
        assert "clean" in scrubber.summary()

    def test_steps_are_bounded_by_batch(self):
        _device, store, _obs = build_demo_store()
        scrubber = Scrubber(store, batch_extents=1)
        stats = scrubber.run()
        # one extent per step: step count == worklist size, and the
        # exhausted scrubber's next step is a no-op
        assert stats.steps == stats.extents_total
        assert scrubber.step() == 0

    def test_worklist_is_sorted_and_unique(self):
        _device, store, _obs = build_demo_store()
        offsets = [item.extent.offset for item in Scrubber(store)._worklist]
        assert offsets == sorted(offsets)
        assert len(offsets) == len(set(offsets))

    def test_detects_checksum_damage(self):
        device, store, _obs = build_demo_store()
        inject(device, store, "checksum")
        scrubber = Scrubber(store, batch_extents=4)
        stats = scrubber.run()
        assert stats.errors == 1
        (finding,) = scrubber.findings
        assert finding.kind == CHECKSUM_CORRUPT
        assert finding.snapshot == "demo-1"

    def test_scrub_never_writes(self):
        device, store, _obs = build_demo_store()
        media_before = copy.deepcopy(device._blocks)
        allocated_before = store.allocator.allocated_bytes
        Scrubber(store, batch_extents=8).run()
        assert device._blocks == media_before
        assert store.allocator.allocated_bytes == allocated_before

    def test_empty_store_is_immediately_done(self):
        clock = SimClock()
        device = NvmeDevice(clock, name="empty", queue_depth=8, num_queues=4)
        store = ObjectStore(device)
        stats = Scrubber(store).run()
        assert stats.done
        assert stats.extents_total == 0
        assert stats.progress_permille == 1000

    def test_batch_must_be_positive(self):
        _device, store, _obs = build_demo_store()
        with pytest.raises(ValueError):
            Scrubber(store, batch_extents=0)


class TestBaseMemo:
    """One run resolves each delta base once, and only ever from content
    it verified: never in place of an item's own bytes."""

    def test_a_shared_base_is_read_once_per_run(self):
        store = queued_store()
        base = store.write_page(b"base" + bytes(2000))
        deltas = [store.write_page(b"d%03d" % i + bytes(2000),
                                   delta_base=base.content_hash,
                                   dirty_extents=[(0, 4)])
                  for i in range(6)]
        assert store.stats.pages_delta == len(deltas)
        store.commit_snapshot("s", meta=None, records=[], pages=deltas)
        store.flush_barrier()
        device = store.device
        reads = device.stats.reads
        stats = Scrubber(store).run()
        assert stats.errors == 0
        # every extent once, plus at most one point read of the base
        # (when a delta precedes it in media order)
        assert device.stats.reads - reads <= stats.extents_total + 1

    def test_the_memo_never_vouches_for_an_items_own_bytes(self):
        store = queued_store()
        # incompressible, so both records are stored raw
        content = b"".join(hashlib.sha256(b"%d" % i).digest() for i in range(128))
        first = store.write_page(content)
        twin = PageRef(first.content_hash,
                       store._stage_record(KIND_PAGE, 0, 0, content), len(content))
        store.commit_snapshot("first", meta=None, records=[], pages=[first])
        store.commit_snapshot("twin", meta=None, records=[], pages=[twin])
        store.flush_barrier()
        # whichever of the two the scrub reaches second, after the other
        # verified the same hash, takes a misdirected write: a record
        # that checksums, holding other bytes — only its content hash
        # can tell
        later = max(first.extent, twin.extent, key=lambda e: e.offset)
        store.volume.write_data(later.offset, pack_record(
            kind=KIND_PAGE, oid=0, epoch=0, payload=content[::-1]), sync=True)
        scrubber = Scrubber(store)
        assert scrubber.run().errors == 1
        (finding,) = scrubber.findings
        assert (finding.kind, finding.offset) == (CHECKSUM_CORRUPT, later.offset)


class TestScrubFaultsAndObs:
    def test_step_failpoint_fail_action(self):
        device, store, _obs = build_demo_store()
        faults = FailpointRegistry(device.clock, seed=7)
        store.attach_faults(faults)
        faults.arm(FP_SCRUB_STEP, FaultAction("fail"))
        scrubber = Scrubber(store, batch_extents=4)
        with pytest.raises(ObjectStoreError):
            scrubber.step()
        # the armed point is consumed; the pass finishes afterwards
        assert scrubber.run().done

    def test_progress_and_counters_exported(self):
        _device, store, obs = build_demo_store()
        scrubber = Scrubber(store, batch_extents=8)
        scrubber.run()
        by_name = {
            inst.name: inst.value for inst in obs.registry.collect()
        }
        assert by_name["objstore.scrub.progress_permille"] == 1000
        assert (by_name["objstore.scrub.extents_verified_total"]
                == scrubber.stats.extents_total)
        assert "objstore.scrub.errors_total" in by_name
