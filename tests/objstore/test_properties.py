"""Property-based tests for object-store invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.nvme import NvmeDevice
from repro.objstore.gc import GarbageCollector
from repro.objstore.store import ObjectStore
from repro.sim.clock import SimClock


def fresh_store():
    return ObjectStore(NvmeDevice(SimClock()))


@settings(max_examples=40, deadline=None)
@given(
    pages=st.lists(st.binary(min_size=1, max_size=128), min_size=1, max_size=30)
)
def test_dedup_read_your_writes(pages):
    """Whatever mix of duplicate pages is written, every ref reads back
    its own content, and unique storage matches unique content."""
    store = fresh_store()
    refs = [store.write_page(p) for p in pages]
    for payload, ref in zip(pages, refs):
        got = store.read_page(ref)
        assert got.rstrip(b"\x00") == payload.rstrip(b"\x00")
    unique = {p.rstrip(b"\x00") for p in pages}
    assert store.stats.pages_written == len(unique)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("commit"), st.integers(0, 5)),
            st.tuples(st.just("delete"), st.integers(0, 30)),
            st.tuples(st.just("gc"), st.integers(0, 30)),
        ),
        max_size=30,
    )
)
def test_snapshot_delete_gc_interleaving(ops):
    """Random commit/delete/GC interleavings never corrupt live data
    and never double-free."""
    store = fresh_store()
    gc = GarbageCollector(store)
    live = {}  # snap_id -> expected page payloads
    counter = 0
    for op in ops:
        if op[0] == "commit":
            counter += 1
            payloads = [b"snap%d-pg%d" % (counter, i) for i in range(op[1])]
            refs = [store.write_page(p) for p in payloads]
            snap = store.commit_snapshot(
                f"s{counter}", meta=None, records=[], pages=refs
            )
            live[snap.snap_id] = payloads
        elif op[0] == "delete" and live:
            snap_id = sorted(live)[op[1] % len(live)]
            store.delete_snapshot(snap_id)
            del live[snap_id]
        elif op[0] == "gc":
            gc.collect(limit=op[1])
            store.allocator.check_invariants()
    # Every surviving snapshot's pages read back intact.
    for snap_id, payloads in live.items():
        snapshot = store.directory.get(snap_id)
        _meta, _records, pages, _lineage = store.load_manifest(snapshot)
        got = sorted(store.read_page(r) for r in pages)
        assert got == sorted(payloads)


@settings(max_examples=20, deadline=None)
@given(
    committed=st.integers(0, 4),
    torn_pages=st.integers(0, 6),
)
def test_crash_recovery_keeps_exactly_durable_prefix(committed, torn_pages):
    """After a crash, recovery yields exactly the snapshots that were
    durable — never a torn one, never fewer."""
    clock = SimClock()
    device = NvmeDevice(clock)
    store = ObjectStore(device)
    for i in range(committed):
        ref = store.write_page(b"c%d" % i)
        store.commit_snapshot(f"durable-{i}", meta=None, records=[], pages=[ref])
    store.flush_barrier()
    if torn_pages:
        refs = [store.write_page(b"torn-%d" % i) for i in range(torn_pages)]
        store.commit_snapshot("torn", meta=None, records=[], pages=refs)
    device.crash()
    fresh = ObjectStore(device)
    report = fresh.recover()
    names = {s.name for s in fresh.snapshots()}
    assert names == {f"durable-{i}" for i in range(committed)}
    assert report.snapshots_recovered == committed
