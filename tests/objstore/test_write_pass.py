"""Pins for the one-pass store write path: the direct delta writer and
the disarmed failpoint plane."""

from hypothesis import given, settings, strategies as st

from repro.fault.names import FP_STORE_WRITE_RECORD
from repro.fault.registry import FailpointRegistry, FaultAction
from repro.hw.nvme import NvmeDevice
from repro.objstore.codec import coalesce_extents
from repro.objstore.record import encode, encode_delta
from repro.objstore.store import ObjectStore
from repro.sim.clock import SimClock
from repro.units import PAGE_SIZE


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=PAGE_SIZE),
    extents=st.lists(
        st.tuples(st.integers(0, PAGE_SIZE - 1), st.integers(0, 600)),
        min_size=1, max_size=16,
    ),
    depth=st.integers(1, 4),
    base=st.binary(min_size=20, max_size=20),
)
def test_direct_delta_writer_equals_the_dict_encoding(payload, extents, depth, base):
    padded = payload + bytes(PAGE_SIZE - len(payload))
    merged = coalesce_extents(extents)
    chunks = []
    for offset, nbytes in merged:
        data = payload[offset:offset + nbytes]
        short = min(offset + nbytes, PAGE_SIZE) - offset - len(data)
        chunks.append((offset, data + bytes(max(short, 0))))
    expected = encode({
        "base": base, "depth": depth, "len": len(payload),
        "ext": [[offset, padded[offset:offset + nbytes]] for offset, nbytes in merged],
    })
    assert encode_delta(base, depth, len(payload), chunks) == expected


class _CountingRegistry(FailpointRegistry):
    calls = 0

    def fire(self, name, **labels):
        type(self).calls += 1
        return super().fire(name, **labels)


def test_a_disarmed_plane_makes_no_fire_call():
    clock = SimClock()
    device = NvmeDevice(clock, queue_depth=8, num_queues=4)
    store = ObjectStore(device)
    registry = _CountingRegistry(clock=clock)
    store.attach_faults(registry)
    _CountingRegistry.calls = 0
    for i in range(40):
        ref = store.write_page(b"page %d" % i + bytes(100))
        meta = store.write_meta(1, {"i": i})
        store.commit_snapshot(f"s{i}", {}, [meta], [ref])
    assert _CountingRegistry.calls == 0
    registry.arm(FP_STORE_WRITE_RECORD, FaultAction("fail"), after=10 ** 9)
    assert registry.active
    store.write_page(b"armed")
    assert _CountingRegistry.calls > 0
    registry.disarm()
    assert not registry.active


def _reclaim_one_at_a_time(store):
    """The reclaim before runs were merged: one discard and one free
    per dead extent (the reference the merged reclaim must match)."""
    now = store._now()
    dead = [extent for extent, (left, at) in store.garbage.items()
            if not left and at <= now]
    for extent in dead:
        del store.garbage[extent]
        store.volume.discard_data(extent.offset, extent.length)
        store.allocator.free(extent)
    return dead


def _stream_with_deletes(store, discards):
    device_discard = store.device.discard

    def counting(offset, nbytes):
        discards.append((offset, nbytes))
        device_discard(offset, nbytes)

    store.device.discard = counting
    snaps = []
    for i in range(30):
        refs = [store.write_page(b"%d-%d" % (i, j) + bytes(300)) for j in range(6)]
        meta = store.write_meta(1, {"i": i})
        snaps.append(store.commit_snapshot(f"s{i}", {}, [meta], refs))
        if len(snaps) > 3:
            store.delete_snapshot(snaps.pop(0).snap_id)
    store.flush_barrier()


def test_reclaim_merges_runs_and_matches_the_one_extent_reference():
    merged_discards, reference_discards = [], []
    stores = []
    for reclaim, discards in ((None, merged_discards),
                              (_reclaim_one_at_a_time, reference_discards)):
        store = ObjectStore(NvmeDevice(SimClock(), queue_depth=8, num_queues=4))
        if reclaim is not None:
            store._reclaim_dead = lambda store=store: reclaim(store)
        _stream_with_deletes(store, discards)
        stores.append(store)
    merged, reference = stores
    assert reference_discards, "the stream must reclaim something"
    assert len(merged_discards) < len(reference_discards)
    # every merged discard covers exactly a run of adjacent reference ones
    covered = sorted(reference_discards)
    assert sum(n for _, n in merged_discards) == sum(n for _, n in covered)
    assert merged.allocator.free_extents() == reference.allocator.free_extents()
    assert merged.device.held_bytes == reference.device.held_bytes


def test_a_recovered_delta_names_its_base_with_one_record_read():
    clock = SimClock()
    device = NvmeDevice(clock, queue_depth=8)
    store = ObjectStore(device)
    base = b"base page " * 300
    base_ref = store.write_page(base)
    changed = base[:100] + b"CHANGED!" + base[108:]
    delta_ref = store.write_page(changed, delta_base=base_ref.content_hash,
                                 dirty_extents=[(100, 8)])
    assert delta_ref.depth == 1
    store.commit_snapshot("s", {}, [], [delta_ref])
    store.flush_barrier()
    device.crash()
    rebooted = ObjectStore(device)
    rebooted.recover()
    row = next(ref for ref in rebooted.load_manifest(rebooted.snapshot_by_name("s")).pages
               if ref.content_hash == delta_ref.content_hash)
    assert rebooted.dedup.get(row.content_hash).base_hash is None  # not read yet
    reads = []
    read_record = rebooted._read_record
    rebooted._read_record = lambda *a, **k: reads.append(a) or read_record(*a, **k)
    listed = rebooted._with_delta_bases([row])
    assert len(reads) == 1
    assert [ref.content_hash for ref in listed] == [row.content_hash, base_ref.content_hash]
    assert rebooted.dedup.get(row.content_hash).base_hash == base_ref.content_hash
    rebooted.commit_snapshot("again", {}, [], [row])
    assert len(reads) == 1  # the hash is kept: a second commit reads nothing more
