"""Property-based tests for object-store invariants."""

from dataclasses import replace

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import StoreFullError
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P
from repro.objstore.block import DATA_BASE
from repro.objstore.store import ObjectStore
from repro.sim.clock import SimClock
from repro.units import KIB


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


def run_interleaving(ops):
    """Run commit/delete/barrier ``ops`` on a store whose data area is
    4 KiB — a barrier lets the next commit points reclaim, and the
    allocator's cursor wraps onto reclaimed space within a few dozen
    commits — and check that every surviving snapshot reads back
    intact.  A commit the store refuses as full (its garbage not yet
    outlived by two durable superblocks) ends the run.  Returns how
    many committed records landed in a deleted snapshot's extents."""
    store = ObjectStore(NvmeDevice(SimClock(), spec=replace(
        OPTANE_900P, capacity=DATA_BASE + 4 * KIB)))
    live = {}  # snap_id -> expected page payloads
    dead: list = []  # extents of deleted snapshots
    reused = counter = 0
    for op in ops:
        if op[0] == "commit":
            counter += 1
            payloads = [b"snap%d-pg%d" % (counter, i) for i in range(op[1])]
            try:
                refs = [store.write_page(p) for p in payloads]
                snap = store.commit_snapshot(
                    f"s{counter}", meta=None, records=[], pages=refs
                )
            except StoreFullError:
                break
            live[snap.snap_id] = payloads
            written = [ref.extent for ref in refs] + [snap.manifest_extent]
            reused += sum(any(e.offset < d.end and d.offset < e.end for d in dead)
                          for e in written)
        elif op[0] == "delete" and live:
            snap_id = sorted(live)[op[1] % len(live)]
            snapshot = store.directory.get(snap_id)
            dead.append(snapshot.manifest_extent)
            dead.extend(ref.extent for ref in store.load_manifest(snapshot).pages)
            store.delete_snapshot(snap_id)
            del live[snap_id]
        elif op[0] == "barrier":
            store.flush_barrier()
        store.allocator.check_invariants()
    # Every surviving snapshot's pages read back intact.
    for snap_id, payloads in live.items():
        snapshot = store.directory.get(snap_id)
        _meta, _records, pages, _lineage = store.load_manifest(snapshot)
        got = sorted(store.read_page(r) for r in pages)
        assert got == sorted(payloads)
    return reused


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("commit"), st.integers(0, 5)),
            st.tuples(st.just("delete"), st.integers(0, 30)),
            st.just(("barrier",)),
        ),
        min_size=30,
        max_size=60,
    )
)
def test_snapshot_delete_gc_interleaving(ops):
    """Random commit/delete/barrier interleavings never corrupt live
    data and never double-free, also where reclaimed space is reused
    (about half of the examples reuse it; fewer than one in fifty ends
    at a refused commit)."""
    if run_interleaving(ops):
        event("reused a deleted snapshot's extent")


def test_interleaving_reuses_deleted_extents():
    # The random interleavings above are checked on reused space too:
    # one snapshot kept live, the next deleted behind a barrier, and
    # later commits land in the deleted ones' extents.
    ops = [("commit", 5)] + [("commit", 5), ("delete", 0), ("barrier",)] * 30
    assert run_interleaving(ops) > 0


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
