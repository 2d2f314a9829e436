"""Demo store and corruption injection for ``sls fsck`` / ``sls scrub``.

Both subcommands operate on a deterministic demo store (a few
checkpoint-like snapshots on a 4-queue NVMe model) so RECOVERY.md's
worked examples reproduce byte-for-byte.  ``--inject`` plants one
named corruption before the check runs — each maps to one of fsck's
corruption classes:

=============  ==========================================================
``checksum``    flip a byte inside a referenced page record on media
``refcount``    take an extra dedup reference nothing accounts for
``orphan``      allocate an extent and lose track of it (a leak)
``double-alloc``commit a snapshot whose record ref aims at another
                snapshot's page extent (the same bytes claimed twice)
``dangling``    commit a snapshot referencing an extent beyond the volume
``delta-base``  commit a delta-encoded page whose base hash resolves to
                nothing (the base was lost or never written)
``delta-deep``  commit a self-referential delta record — reconstruction
                walks past the writer's re-anchor bound
=============  ==========================================================
"""

from __future__ import annotations

from repro.hw.nvme import NvmeDevice
from repro.obs import KernelObs
from repro.objstore.alloc import Extent
from repro.objstore.record import ENC_DELTA, KIND_PAGE, encode
from repro.objstore.store import MetaRef, ObjectStore, PageRef
from repro.sim.clock import SimClock
from repro.units import KIB

INJECTIONS = ("checksum", "refcount", "orphan", "double-alloc", "dangling",
              "delta-base", "delta-deep")

_SNAPSHOTS = 3
_PAGES_PER_SNAPSHOT = 4


def build_demo_store() -> tuple[NvmeDevice, ObjectStore, KernelObs]:
    """A small deterministic store: 3 snapshots x 4 pages + metadata."""
    clock = SimClock()
    device = NvmeDevice(clock, name="fsck-nvme", queue_depth=8, num_queues=4)
    store = ObjectStore(device)
    obs = KernelObs(clock, label="fsck-demo")
    store.attach_obs(obs)
    for i in range(_SNAPSHOTS):
        pages = [
            store.write_page(
                b"demo-%d-%d" % (i, j) + b"\xab" * (1 * KIB)
            )
            for j in range(_PAGES_PER_SNAPSHOT)
        ]
        meta = store.write_meta(100 + i, {"checkpoint": i})
        store.commit_snapshot(
            f"demo-{i}", meta={"demo": i}, records=[meta], pages=pages
        )
    store.flush_barrier()
    return device, store, obs


def _first_page_ref(store: ObjectStore, snapshot_name: str) -> PageRef:
    snapshot = store.snapshot_by_name(snapshot_name)
    return store.load_manifest(snapshot).pages[0]


def inject(device: NvmeDevice, store: ObjectStore, kind: str) -> str:
    """Plant one named corruption; returns a description of the damage."""
    if kind == "checksum":
        ref = _first_page_ref(store, "demo-1")
        offset = ref.extent.offset + 40  # into the payload, past the header
        block_no, within = divmod(offset, 4096)
        device._blocks[block_no][within] ^= 0xFF
        return (f"flipped one byte at media offset {offset} inside the page "
                f"record backing demo-1")
    if kind == "refcount":
        ref = _first_page_ref(store, "demo-0")
        store.dedup.hold(ref.content_hash)
        return (f"took an extra dedup reference on page "
                f"{ref.content_hash.hex()[:12]} that no manifest accounts for")
    if kind == "orphan":
        extent = store.allocator.allocate(4 * KIB)
        return (f"allocated [{extent.offset}, {extent.end}) and dropped the "
                f"reference (a {extent.length}-byte leak)")
    if kind == "double-alloc":
        ref = _first_page_ref(store, "demo-0")
        contested = MetaRef(
            oid=999, extent=Extent(ref.extent.offset, ref.extent.length)
        )
        store.commit_snapshot(
            "evil", meta={"injected": True}, records=[contested], pages=[]
        )
        store.flush_barrier()
        return (f"committed snapshot 'evil' whose record ref claims the same "
                f"bytes [{ref.extent.offset}, {ref.extent.end}) as demo-0's "
                f"first page")
    if kind == "dangling":
        beyond = MetaRef(
            oid=5, extent=Extent(device.capacity + 4096, 64)
        )
        store.commit_snapshot(
            "dangle", meta={"injected": True}, records=[beyond], pages=[]
        )
        store.flush_barrier()
        return ("committed snapshot 'dangle' referencing an extent past the "
                "end of the volume")
    if kind in ("delta-base", "delta-deep"):
        broken = kind == "delta-base"
        name = "delta-evil" if broken else "delta-loop"
        content = name.encode() + b"\xee" * (1 * KIB)
        content_hash = ObjectStore.page_hash(content)
        stored = encode({
            # delta-base: a hash no record anywhere has.  delta-deep: the
            # record names *itself* as its base, so reconstruction
            # recurses until the chain-depth bound trips.
            "base": b"\x11" * 20 if broken else content_hash,
            "depth": 1, "len": len(content), "ext": [[0, content[:16]]],
        })
        extent = store._stage_record(
            KIND_PAGE, 0, 0, stored, flags=ENC_DELTA
        )
        ref = PageRef(content_hash=content_hash, extent=extent, length=len(content))
        store.dedup.insert(ref, media_bytes=extent.length)
        store.commit_snapshot(name, meta={"injected": True}, records=[], pages=[ref])
        store.flush_barrier()
        what = ("whose base hash resolves to nothing" if broken
                else "that names itself as its own base")
        return f"committed snapshot {name!r} holding a delta record {what}"
    raise ValueError(f"unknown injection {kind!r} (choose from {INJECTIONS})")
