"""The media walker (repro.objstore.walk) and its three consumers.

``recover()``, fsck and scrub read one definition of "what the media
says", so on the same damaged device they must agree — ``recover()``
on a snapshot's metadata, which is all it reads, fsck and scrub on
everything — and media that checksums but decodes to the wrong shape
may only ever surface as a catalogued ``ObjectStoreError``, a discarded
snapshot, or a finding.
"""

import pytest

from repro.cli.recovery import INJECTIONS, build_demo_store, inject
from repro.errors import ObjectStoreError
from repro.objstore import ObjectStore, Scrubber, check_store, repair_store
from repro.objstore.block import SUPERBLOCK_SLOT_SIZE
from repro.objstore.fsck import CHECKSUM_CORRUPT, Fsck
from repro.objstore.record import KIND_MANIFEST, KIND_SUPER, encode, pack_record
from repro.objstore.walk import (
    DANGLING_REF,
    DELTA_BROKEN_BASE,
    DELTA_CHAIN_TOO_DEEP,
    MediaWalk,
)

MEDIA_KINDS = {
    CHECKSUM_CORRUPT, DANGLING_REF, DELTA_BROKEN_BASE, DELTA_CHAIN_TOO_DEEP,
}


def media_findings(findings):
    return {(f.kind, f.offset) for f in findings if f.kind in MEDIA_KINDS}


@pytest.mark.parametrize("kind", INJECTIONS)
class TestConsumersAgree:
    def test_recover_discards_what_fsck_marks_damaged(self, kind):
        """... in a snapshot's metadata.  A page row fsck condemns is
        adopted by ``recover()``, which reads no page, and fails its
        first read instead."""
        device, store, _obs = build_demo_store()
        inject(device, store, kind)
        fsck = Fsck(ObjectStore(device))
        fsck.run()
        rows = {walk.snapshot.name: {ref.extent.offset for table in walk.tables
                                     for ref in table.pages + table.bad_pages}
                for walk in fsck.walks}
        findings = [f for f in fsck.report.findings if f.kind in MEDIA_KINDS]
        bad_rows = {(f.snapshot, f.offset) for f in findings
                    if f.offset in rows[f.snapshot]}
        damaged = {f.snapshot for f in findings if (f.snapshot, f.offset) not in bad_rows}
        recovered = ObjectStore(device)
        report = recovered.recover()
        on_media = {s.name for s in fsck.directory.snapshots.values()}
        assert on_media - {s.name for s in recovered.snapshots()} == damaged
        assert report.snapshots_discarded == len(damaged)
        assert len(report.errors) == len(damaged)
        assert bool(bad_rows) == (kind in ("checksum", "delta-base", "delta-deep"))
        for name, offset in bad_rows:
            pages = recovered.load_manifest(recovered.snapshot_by_name(name)).pages
            (ref,) = [ref for ref in pages if ref.extent.offset == offset]
            with pytest.raises(ObjectStoreError):
                recovered.read_page(ref)

    def test_scrub_and_fsck_report_the_same_media_damage(self, kind):
        device, store, _obs = build_demo_store()
        inject(device, store, kind)
        scrubber = Scrubber(store)
        scrubber.run()
        assert (media_findings(scrubber.findings)
                == media_findings(check_store(store).findings))

    def test_recover_after_repair_equals_the_repaired_state(self, kind):
        device, store, _obs = build_demo_store()
        inject(device, store, kind)
        assert repair_store(store).repaired_all
        store.flush_barrier()
        recovered = ObjectStore(device)
        assert recovered.recover().snapshots_discarded == 0
        assert recovered.directory.snapshots == store.directory.snapshots
        refcounts = {h: e.refcount for h, e in store.dedup.entries().items()}
        assert refcounts == {
            h: e.refcount for h, e in recovered.dedup.entries().items()
        }
        assert (recovered.allocator.allocated_extents()
                == store.allocator.allocated_extents())


def overwrite_manifest(store, name, value):
    """Replace ``name``'s manifest with a record that checksums but
    whose payload is ``value`` (crafted via ``pack_record``)."""
    extent = store.snapshot_by_name(name).manifest_extent
    record = pack_record(
        kind=KIND_MANIFEST, oid=0, epoch=0, payload=encode(value)
    )
    assert len(record) <= extent.length
    store.volume.write_data(extent.offset, record, sync=True)


def write_superblock(device, store, value):
    """A next-generation superblock whose payload is ``value``."""
    generation = store.volume.generation + 1
    record = pack_record(
        kind=KIND_SUPER, oid=0, epoch=generation, payload=encode(value)
    )
    device.write((generation % 2) * SUPERBLOCK_SLOT_SIZE, record)


MALFORMED_MANIFESTS = [
    [1, 2, 3],                                                     # not a dict
    {"v": 2, "meta": None, "pages": b""},                          # no "records"
    {"v": 2, "meta": None, "records": 7, "pages": b""},            # table not bytes
    {"v": 2, "meta": None, "records": [[1, 2, 3]], "pages": b""},  # a list of rows
    {"v": 2, "meta": None, "records": b"", "pages": "h" * 32},     # str, not bytes
    {"v": 2, "meta": None, "records": b"\0" * 21, "pages": b""},   # ragged records
    {"v": 2, "meta": None, "records": b"", "pages": b"\0" * 33},   # ragged pages
    {"meta": None, "records": b"", "pages": b""},                  # no version
    {"v": 3, "meta": None, "records": b"", "pages": b""},          # unknown version
    {"meta": None, "records": [], "pages": []},                    # the v1 layout
]

MALFORMED_DIRECTORIES = [
    7,                                 # neither list nor stub
    [1, 2],                            # entries are not dicts
    [{"id": 1}],                       # entry missing keys
    {"dir-spill": [16384]},            # stub of the wrong arity
    {"dir-spill": [1 << 50, 64]},      # stub aimed past the volume
]


class TestMalformedMedia:
    @pytest.mark.parametrize("value", MALFORMED_MANIFESTS)
    def test_malformed_manifest_is_a_discarded_snapshot(self, value):
        device, store, _obs = build_demo_store()
        overwrite_manifest(store, "demo-1", value)
        recovered = ObjectStore(device)
        report = recovered.recover()
        assert report.snapshots_discarded == 1
        assert report.snapshots_recovered == 2
        (error,) = report.errors
        assert "demo-1" in error and "does not decode" in error
        assert [s.name for s in recovered.snapshots()] == ["demo-0", "demo-2"]
        with pytest.raises(ObjectStoreError, match="malformed manifest"):
            store.load_manifest(store.snapshot_by_name("demo-1"))
        # fsck and scrub classify the same record the same way
        (finding,) = check_store(ObjectStore(device)).findings
        assert (finding.kind, finding.snapshot) == (CHECKSUM_CORRUPT, "demo-1")
        scrubber = Scrubber(store)
        scrubber.run()
        assert media_findings(scrubber.findings) == {
            (CHECKSUM_CORRUPT, finding.offset)
        }
        # repair drops it (nothing parsed, nothing to quarantine)
        assert repair_store(store).repaired_all
        assert [s.name for s in store.snapshots()] == ["demo-0", "demo-2"]

    @pytest.mark.parametrize("value", MALFORMED_DIRECTORIES)
    def test_malformed_directory_is_a_catalogued_error(self, value):
        device, store, _obs = build_demo_store()
        write_superblock(device, store, value)
        with pytest.raises(ObjectStoreError, match="does not decode as a directory"):
            ObjectStore(device).recover()
        report = repair_store(ObjectStore(device))
        (finding,) = report.findings
        assert finding.kind == CHECKSUM_CORRUPT
        assert finding.action == "report-only" and not finding.repaired


class TestWalk:
    def test_shared_extents_are_read_once(self):
        device, store, _obs = build_demo_store()
        page = store.write_page(b"shared" * 100)
        for name in ("a", "b"):
            store.commit_snapshot(name, meta=None, records=[], pages=[page])
        store.flush_barrier()
        walk = MediaWalk(store)
        directory = walk.directory()
        reads_before = device.stats.reads
        verdicts = [
            v for sid in sorted(directory.snapshots)
            for v in walk.snapshot(directory.snapshots[sid])
        ]
        assert all(v.ok for v in verdicts)
        unique = {
            (v.reference.extent.offset, v.reference.extent.length)
            for v in verdicts
        }
        assert len(unique) < len(verdicts)
        assert device.stats.reads - reads_before == len(unique)
        assert walk.bytes_verified == sum(length for _off, length in unique)

    def test_verdicts_are_lazy(self):
        device, store, _obs = build_demo_store()
        inject(device, store, "dangling")
        walk = MediaWalk(store)
        snapshot = walk.directory().by_name("dangle")
        reads_before = device.stats.reads
        verdicts = walk.snapshot(snapshot)
        assert device.stats.reads == reads_before  # nothing read yet
        assert next(verdicts).ok                   # the manifest
        bad = next(verdicts)
        assert (bad.kind, bad.reference.ref.oid) == (DANGLING_REF, 5)
        # the wild extent was judged by bounds alone, never read
        assert device.stats.reads - reads_before == 1
