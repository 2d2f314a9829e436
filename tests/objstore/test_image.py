"""The one image format (:mod:`repro.objstore.image`): one writer and
one reader for every producer of a snapshot someone reads back.

The reader answers with ``(value, page map)`` or one catalogued error —
whatever checksummed bytes it is handed — and is the exact inverse of
the writer across incremental chains, reboots and retention.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ImageFormatError, ObjectStoreError
from repro.hw.nvme import NvmeDevice
from repro.objstore.image import Lineage, read_image, verify_image_record, write_image
from repro.objstore.record import decode, encode
from repro.objstore.snapshot import PAGEMAP_ROW
from repro.objstore.store import ObjectStore
from repro.sim.clock import SimClock


def fresh_store():
    return ObjectStore(NvmeDevice(SimClock()))


def written(store, slots=4, **kwargs):
    """One image of ``slots`` pages under oid 3; ``(snapshot, page map)``."""
    page_map = {3: {i: store.write_page(b"page-%d" % i) for i in range(slots)}}
    snapshot, _lineage = write_image(
        store, name="img", meta={"who": "test"}, value={"v": 1},
        page_map=page_map, **kwargs,
    )
    return snapshot, page_map


class TestRoundTrip:
    def test_value_and_map_read_back(self):
        store = fresh_store()
        snapshot, page_map = written(store)
        assert read_image(store, snapshot) == ({"v": 1}, page_map)
        verify_image_record(store, snapshot)

    def test_the_record_is_the_documented_layout(self):
        store = fresh_store()
        snapshot, page_map = written(store, slots=2)
        meta, records, pages, _lineage = store.load_manifest(snapshot)
        assert meta == {"who": "test"} and len(records) == 1
        assert list(pages) == list(page_map[3].values())
        assert store.read_meta(records[0]) == {
            "meta": {"v": 1},
            "pagemap_delta": {3: b"".join(
                PAGEMAP_ROW.pack(slot, ref.content_hash)
                for slot, ref in page_map[3].items()
            )},
        }

    def test_verify_decodes_no_record_and_parses_no_slot_row(self, monkeypatch):
        import repro.objstore.image as image_module
        import repro.objstore.store as store_module

        class NoRows:
            size = PAGEMAP_ROW.size

            def iter_unpack(self, rows):
                raise AssertionError("a verify read parsed a slot row")

        def no_decode(payload):
            raise AssertionError("a verify read decoded the record")

        store = fresh_store()
        snapshot, _page_map = written(store)
        monkeypatch.setattr(image_module, "PAGEMAP_ROW", NoRows())
        monkeypatch.setattr(store_module, "decode", no_decode)  # read_meta's
        reads = store.device.stats.reads
        verify_image_record(store, snapshot)
        assert store.device.stats.reads == reads + 2  # manifest, record

    def test_an_unencodable_slot_is_a_catalogued_error(self):
        store = fresh_store()
        ref = store.write_page(b"page")
        for slot in (-1, 1 << 32, "seven"):
            with pytest.raises(ObjectStoreError, match="does not encode"):
                write_image(store, name="bad", meta=None, value={},
                            page_map={0: {slot: ref}})


WRONG_SHAPES = [
    [1, 2, 3],
    7,
    None,
    {"pagemap_delta": {}},                              # no value half
    {"meta": {}},                                       # no slot map
    {"meta": {}, "pagemap_delta": [[0, b"h" * 20]]},    # the PR 10 list layout
    {"meta": {}, "pagemap_delta": {3: [[0, b"h" * 20]]}},
    {"meta": {}, "pagemap_delta": {3: b"r" * 23}},      # a short slot row
    {"meta": {}, "pagemap_delta": {3: PAGEMAP_ROW.pack(0, b"\x07" * 20)}},
]


class TestWrongShapes:
    @pytest.mark.parametrize("record", WRONG_SHAPES, ids=lambda v: repr(v)[:40])
    def test_a_checksummed_record_of_the_wrong_shape(self, record):
        store = fresh_store()
        snapshot, _page_map = written(store)
        store.read_meta = lambda ref: record
        with pytest.raises(ImageFormatError):
            read_image(store, snapshot)

    def test_a_snapshot_without_records_is_legal_but_no_image(self):
        store = fresh_store()
        plain = store.commit_snapshot(
            "plain", meta=None, records=[], pages=[store.write_page(b"x")]
        )
        for read in (read_image, verify_image_record):
            with pytest.raises(ImageFormatError, match="no metadata record"):
                read(store, plain)

    def test_every_truncation_and_mutation_of_a_slot_map_record(self):
        """Whatever the codec makes of a damaged-but-checksummed record,
        the reader answers with an image or a catalogued error."""
        store = fresh_store()
        snapshot, page_map = written(store, slots=2)
        _meta, records, _pages, _lineage = store.load_manifest(snapshot)
        payload = encode(store.read_meta(records[0]))
        damaged = [payload[:cut] for cut in range(len(payload))]
        for pos in range(len(payload)):
            mutated = bytearray(payload)
            for byte in range(256):
                if byte != payload[pos]:
                    mutated[pos] = byte
                    damaged.append(bytes(mutated))
        loaded = 0
        for candidate in damaged:
            store.read_meta = lambda ref, candidate=candidate: decode(candidate)
            try:
                read_image(store, snapshot)
                loaded += 1
            except ObjectStoreError:
                pass
        del store.read_meta
        assert 0 < loaded < len(damaged)
        assert read_image(store, snapshot) == ({"v": 1}, page_map)


# -- property: writer -> reader across incremental chains -------------------------

#: one checkpoint's writes: (oid, slot, content) with few enough of each
#: that later steps overwrite earlier slots and slots share hashes
STEP = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 3)),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=5),
       drop_ancestors=st.booleans())
def test_writer_reader_round_trip_across_a_chain(steps, drop_ancestors):
    """A full image then up to four incrementals, each storing only the
    slots that changed: every snapshot reads back its complete map —
    before and after a reboot, and with its ancestors deleted."""
    store = fresh_store()
    chain = []  # (snapshot, value, complete map)
    page_map, lineage = {}, Lineage()
    for number, step in enumerate(steps):
        base_map = page_map
        page_map = {oid: dict(slots) for oid, slots in base_map.items()}
        for oid, slot, content in step:
            page_map.setdefault(oid, {})[slot] = store.write_page(
                b"content-%d" % content
            )
        snapshot, lineage = write_image(
            store, name=f"ckpt-{number}", meta=None, value={"n": number},
            page_map=page_map, epoch=number,
            base_map=base_map if chain else None, base=lineage,
        )
        assert len(lineage.records) == len(lineage.manifests) == number + 1
        chain.append((snapshot, {"n": number}, page_map))

    def check(store, chain):
        for snapshot, value, expected in chain:
            got_value, got_map = read_image(store, snapshot)
            assert got_value == value
            assert got_map == expected
            verify_image_record(store, snapshot)

    check(store, chain)
    if drop_ancestors:
        for snapshot, _value, _map in chain[:-1]:
            store.delete_snapshot(snapshot.snap_id)
        chain = chain[-1:]
        check(store, chain)
    store.flush_barrier()
    store.device.crash()
    rebooted = ObjectStore(store.device)
    assert not rebooted.recover().snapshots_discarded
    check(rebooted, chain)
    for snapshot, _value, expected in chain:
        for slots in expected.values():
            for ref in slots.values():
                assert rebooted.read_page(ref).startswith(b"content-")
