"""A store restore restores the value its image holds.

The restore engine reads and verifies a snapshot's metadata record but
restores ``CheckpointImage.meta`` instead of decoding the record again.
That is exact only while every producer of a store-backed image stores
that very value, and while no restore mutates it: both are pinned here.
"""

import pytest

from repro.core.backends import make_disk_backend
from repro.core.orchestrator import SLS
from repro.core.remote import MigrationReceiver, export_image, import_image, sls_send
from repro.core.restore import load_image_from_store
from repro.hw.netdev import NetworkLink
from repro.hw.nvme import NvmeDevice
from repro.objstore.image import read_image
from repro.objstore.record import encode
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, PAGE_SIZE


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=4 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


@pytest.fixture
def app(kernel, sls):
    sysc = Syscalls(kernel, kernel.spawn("app"))
    heap = sysc.mmap(8 * PAGE_SIZE, name="heap")
    sysc.populate(heap.start, 8 * PAGE_SIZE, fill_fn=lambda i: b"page-%d" % i)
    group = sls.persist(sysc.proc, name="app")
    backend = make_disk_backend(kernel, NvmeDevice(kernel.clock))
    group.attach(backend)
    return sysc, heap, group, backend


def stored_value_is_held(store, image, backend_name):
    snapshot = image.copies[backend_name].snapshot
    assert store.directory.get(snapshot.snap_id) == snapshot
    assert encode(read_image(store, snapshot)[0]) == encode(image.meta)


def test_persist_stores_the_value_its_image_holds(sls, app):
    sysc, heap, group, backend = app
    full = sls.checkpoint(group)
    sysc.poke(heap.start, b"dirty")
    incremental = sls.checkpoint(group)
    sysc.poke(heap.start + PAGE_SIZE, b"dirty")
    consolidating = sls.checkpoint(group, full=True)
    sls.barrier(group)
    assert incremental.incremental and incremental.parent is full
    assert not consolidating.incremental and consolidating.parent is incremental
    for image in (full, incremental, consolidating):
        stored_value_is_held(backend.store, image, "disk0")


def test_a_reloaded_image_holds_the_stored_value(sls, app):
    _sysc, _heap, group, backend = app
    image = sls.checkpoint(group)
    sls.barrier(group)
    store = backend.store
    store.device.crash()
    rebooted = ObjectStore(store.device)
    rebooted.recover()
    snapshot = rebooted.snapshot_by_name(image.name)
    stored_value_is_held(rebooted, load_image_from_store(rebooted, snapshot), "disk0")


def test_imported_and_received_images_hold_the_stored_value(kernel, sls, app):
    _sysc, _heap, group, backend = app
    image = sls.checkpoint(group)
    sls.barrier(group)
    store = ObjectStore(NvmeDevice(kernel.clock, name="dst"), mem=kernel.mem)
    imported = import_image(export_image(image), store)
    stored_value_is_held(store, imported, "import")

    link = NetworkLink(kernel.clock)
    src, dst = link.attach("src"), link.attach("dst")
    receiver = MigrationReceiver(sls, store, dst)
    sls_send(image, src, "dst")
    assert receiver.pump(wait=True) == ["app"]
    stored_value_is_held(store, receiver.build_image("app"), "recv")


@pytest.mark.parametrize("lazy", [True, False])
def test_store_restores_leave_the_image_value_unchanged(kernel, sls, app, lazy):
    sysc, heap, group, _backend = app
    image = sls.checkpoint(group)
    sls.barrier(group)
    before = encode(image.meta)
    for suffix in ("-a", "-b"):
        procs, _metrics = sls.restore(image, backend_name="disk0", lazy=lazy,
                                      new_instance=True, name_suffix=suffix)
        Syscalls(kernel, procs[0]).poke(heap.start, b"restored" + suffix.encode())
        assert encode(image.meta) == before
