"""Recorded-fault-order prefetch: record, replay, and the keywords.

The tentpole's end-to-end story: a lazy restore records the demand
fault sequence into a :class:`FaultOrderLog`; replaying that log as a
prefetch stream warms the restore-side page cache so the same faults
hit cache — and the restored memory is byte-identical to an eager
restore, page for page.
"""

import pytest

from repro.core.api import AuroraApi
from repro.core.backends import make_disk_backend
from repro.core.orchestrator import SLS
from repro.errors import SlsError
from repro.hw.nvme import NvmeDevice
from repro.objstore.pagecache import FaultOrderLog
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, PAGE_SIZE

PAGES = 64
# A scrambled but deterministic touch order (17 is coprime with 64).
FAULT_ORDER = [(page * 17) % PAGES for page in range(PAGES)]


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=8 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


@pytest.fixture
def world(kernel, sls):
    """App on a disk backend, one checkpoint, store in hand."""
    proc = kernel.spawn("app")
    sysc = Syscalls(kernel, proc)
    entry = sysc.mmap(PAGES * PAGE_SIZE, name="heap")
    sysc.populate(entry.start, PAGES * PAGE_SIZE,
                  fill_fn=lambda i: b"page-%03d" % i)
    group = sls.persist(proc, name="app")
    backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
    group.attach(backend)
    image = sls.checkpoint(group)
    sls.barrier(group)
    return proc, sysc, entry, group, image, backend.store


def _touch_all(kernel, proc, entry, order):
    """Fault pages in ``order``; return their contents in page order."""
    sysc = Syscalls(kernel, proc)
    seen = {}
    for page in order:
        seen[page] = sysc.peek(entry.start + page * PAGE_SIZE, PAGE_SIZE)
    return [seen[page] for page in sorted(seen)]


class TestRecording:
    def test_fault_order_is_captured_in_touch_order(self, world, sls, kernel):
        _, _, entry, _, image, _store = world
        log = FaultOrderLog()
        procs, metrics = sls.restore(
            image, backend_name="disk0", lazy=True, prefetch="off",
            record_faults=True, fault_log=log,
            new_instance=True, name_suffix="-rec",
        )
        assert metrics.pages_lazy > 0
        _touch_all(kernel, procs[0], entry, FAULT_ORDER)
        assert len(log) == PAGES
        assert [rec.pindex for rec in log.entries] == FAULT_ORDER
        # Distinct page contents mean distinct content hashes.
        assert len({rec.content_hash for rec in log.entries}) == PAGES

    def test_no_recording_without_the_flag(self, world, sls, kernel):
        _, _, entry, _, image, _store = world
        log = FaultOrderLog()
        procs, _ = sls.restore(
            image, backend_name="disk0", lazy=True, prefetch="off",
            fault_log=log, new_instance=True, name_suffix="-off",
        )
        _touch_all(kernel, procs[0], entry, FAULT_ORDER)
        assert len(log) == 0


class TestReplay:
    def _recorded_log(self, sls, kernel, entry, image):
        log = FaultOrderLog()
        procs, _ = sls.restore(
            image, backend_name="disk0", lazy=True, prefetch="off",
            record_faults=True, fault_log=log,
            new_instance=True, name_suffix="-rec",
        )
        _touch_all(kernel, procs[0], entry, FAULT_ORDER)
        return log

    def test_replay_equals_eager_page_for_page(self, world, sls, kernel):
        _, _, entry, _, image, store = world
        eager_procs, _ = sls.restore(
            image, backend_name="disk0",
            new_instance=True, name_suffix="-eager",
        )
        expected = _touch_all(kernel, eager_procs[0], entry, range(PAGES))
        log = self._recorded_log(sls, kernel, entry, image)
        procs, metrics = sls.restore(
            image, backend_name="disk0", lazy=True, prefetch="recorded",
            fault_log=log, new_instance=True, name_suffix="-replay",
        )
        assert metrics.pages_lazy > 0  # still a lazy restore
        got = _touch_all(kernel, procs[0], entry, FAULT_ORDER)
        assert got == expected

    def test_replayed_faults_hit_the_cache(self, world, sls, kernel):
        _, _, entry, _, image, store = world
        log = self._recorded_log(sls, kernel, entry, image)
        store.pagecache.clear()
        hits_before = store.pagecache.hits
        misses_before = store.pagecache.misses
        procs, _ = sls.restore(
            image, backend_name="disk0", lazy=True, prefetch="recorded",
            fault_log=log, new_instance=True, name_suffix="-replay",
        )
        _touch_all(kernel, procs[0], entry, FAULT_ORDER)
        assert store.pagecache.hits - hits_before >= PAGES
        assert store.pagecache.misses == misses_before
        counter = kernel.obs.registry.counter(
            "sls.restore_pages_prefetched_total",
            group="app", backend="disk0",
        )
        assert counter.value == PAGES

    def test_replay_with_empty_log_still_restores(self, world, sls, kernel):
        _, _, entry, _, image, _store = world
        procs, _ = sls.restore(
            image, backend_name="disk0", lazy=True, prefetch="recorded",
            fault_log=FaultOrderLog(), new_instance=True, name_suffix="-e",
        )
        got = _touch_all(kernel, procs[0], entry, FAULT_ORDER)
        assert all(
            got[page].startswith(b"page-%03d" % page) for page in range(PAGES)
        )


class TestHotDedup:
    def test_hot_refs_deduped_by_content_hash(self, kernel, sls):
        # Eight hot pages with *identical* content share one content
        # hash; the hot prefetch must fetch that page once, yet still
        # install every hot pindex.
        proc = kernel.spawn("app")
        sysc = Syscalls(kernel, proc)
        entry = sysc.mmap(32 * PAGE_SIZE, name="heap")
        sysc.populate(entry.start, 32 * PAGE_SIZE, fill=b"cold")
        group = sls.persist(proc, name="app")
        backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
        group.attach(backend)
        sls.checkpoint(group)
        for i in range(8):  # the hot set: all the same bytes
            sysc.poke(entry.start + i * PAGE_SIZE, b"same-hot-content")
        image = sls.checkpoint(group)
        sls.barrier(group)
        store = backend.store
        store.pagecache.clear()
        misses_before = store.pagecache.misses
        procs, metrics = sls.restore(
            image, backend_name="disk0", lazy=True, prefetch="hot",
            new_instance=True, name_suffix="-hot",
        )
        # One unique hash in the hot set -> exactly one store miss.
        assert store.pagecache.misses - misses_before == 1
        assert metrics.pages_installed >= 8
        rsys = Syscalls(kernel, procs[0])
        faults_before = kernel.mem.stats.pager_in
        for i in range(8):
            assert rsys.peek(entry.start + i * PAGE_SIZE, 16) == (
                b"same-hot-content"
            )
        assert kernel.mem.stats.pager_in == faults_before


class TestPrefetchKeywords:
    """``SLS.restore`` checks the prefetch keywords itself, so the CLI,
    serverless invoke, migration and rollback all get the checks."""

    @pytest.mark.parametrize("kwargs", [
        pytest.param({"lazy": True, "prefetch": "psychic"},
                     id="unknown-policy"),
        pytest.param({"prefetch": "hot"}, id="prefetch-without-lazy"),
        pytest.param({"lazy": True, "prefetch": "recorded"},
                     id="recorded-without-log"),
        pytest.param({"record_faults": True, "fault_log": FaultOrderLog()},
                     id="record-without-lazy"),
        pytest.param({"lazy": True, "record_faults": True},
                     id="record-without-log"),
        pytest.param({"lazy": True, "fault_log": "faults.jsonl"},
                     id="log-not-a-FaultOrderLog"),
    ])
    def test_rejected(self, world, kernel, sls, kwargs):
        *_, image, _ = world
        procs_before = len(kernel.procs)
        with pytest.raises(SlsError):
            sls.restore(image, backend_name="disk0", **kwargs)
        assert len(kernel.procs) == procs_before

    def test_api_record_and_replay_roundtrip(self, world, kernel, sls):
        proc, _, entry, _, _image, store = world
        api = AuroraApi(sls, proc)
        log = FaultOrderLog()
        procs, _ = api.sls_restore(
            lazy=True, prefetch="off", record_faults=True, fault_log=log,
            new_instance=True, name_suffix="-r1", backend_name="disk0",
        )
        _touch_all(kernel, procs[0], entry, FAULT_ORDER)
        assert len(log) == PAGES
        procs, _ = api.sls_restore(
            backend_name="disk0", lazy=True, prefetch="recorded",
            fault_log=log, new_instance=True, name_suffix="-r2",
        )
        got = _touch_all(kernel, procs[0], entry, FAULT_ORDER)
        assert got[0].startswith(b"page-000")
