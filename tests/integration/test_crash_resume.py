"""Integration: the headline SLS flow — run, crash, reboot, resume.

"After a crash, the SLS restores the application, including all state
(i.e., CPU registers, OS state, and memory), which continues executing
oblivious to the interruption."

Nothing from the pre-crash session survives except the device: the
reboot path recovers the store from disk, rebuilds the checkpoint
image from the snapshot lineage, and restores it on a fresh kernel.
"""

import pytest

from repro.core.backends import make_disk_backend
from repro.core.orchestrator import SLS
from repro.core.restore import load_image_from_store
from repro.hw.nvme import NvmeDevice
from repro.objstore.store import ObjectStore
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, KIB, PAGE_SIZE


def boot_and_run():
    """Boot a machine, run an app with rich state, checkpoint it."""
    kernel = Kernel(memory_bytes=4 * GIB)
    sls = SLS(kernel)
    device = NvmeDevice(kernel.clock, name="persist-nvme")
    proc = kernel.spawn("stateful-app")
    sys = Syscalls(kernel, proc)
    heap = sys.mmap(256 * KIB, name="heap")
    sys.populate(heap.start, 256 * KIB, fill_fn=lambda i: b"heap-%d" % i)
    proc.main_thread.cpu.rip = 0x402000
    proc.main_thread.cpu.gp["rbx"] = 0x1234
    fd = sys.open("/journal", O_RDWR | O_CREAT)
    sys.write(fd, b"journal-entry-1\n")
    r, w = sys.pipe()
    sys.write(w, b"in-flight")
    sys.msgsnd(3, 1, b"queued")
    group = sls.persist(proc, name="stateful-app")
    group.attach(make_disk_backend(kernel, device))
    image = sls.checkpoint(group)
    sls.barrier(group)
    return kernel, sls, device, proc, heap, fd, r, group


def reboot_and_restore(old_kernel, device, snapshot_name=None):
    """A fresh kernel recovers the store and restores the newest image."""
    kernel = Kernel(hostname="rebooted", memory_bytes=4 * GIB,
                    clock=old_kernel.clock)
    sls = SLS(kernel)
    store = ObjectStore(device, mem=kernel.mem)
    report = store.recover()
    snapshots = store.snapshots()
    assert snapshots, "no restorable checkpoint on the device"
    snapshot = (
        store.snapshot_by_name(snapshot_name) if snapshot_name
        else snapshots[-1]
    )
    image = load_image_from_store(store, snapshot)
    procs, metrics = sls.restore(image, backend_name="disk0")
    return kernel, sls, procs, metrics, report


class TestCrashRebootResume:
    def test_full_cycle(self):
        kernel, sls, device, proc, heap, fd, pipe_r, group = boot_and_run()
        original_rip = proc.main_thread.cpu.rip

        device.crash()  # power failure

        kernel2, sls2, procs, metrics, report = reboot_and_restore(
            kernel, device
        )
        assert report.snapshots_recovered == 1
        revived = procs[0]
        rsys = Syscalls(kernel2, revived)
        # CPU registers, memory, files, pipes, queues — all back.
        assert revived.main_thread.cpu.rip == original_rip
        assert revived.main_thread.cpu.gp["rbx"] == 0x1234
        assert rsys.peek(heap.start + 3 * PAGE_SIZE, 6) == b"heap-3"
        rsys.lseek(fd, 0)
        assert rsys.read(fd, 16) == b"journal-entry-1\n"
        assert rsys.read(pipe_r, 9) == b"in-flight"
        assert rsys.msgrcv(3).body == b"queued"
        # And it continues executing.
        rsys.poke(heap.start, b"post-crash-write")
        assert rsys.peek(heap.start, 16) == b"post-crash-write"

    def test_incremental_chain_restores_after_reboot(self):
        kernel, sls, device, proc, heap, fd, pipe_r, group = boot_and_run()
        sys = Syscalls(kernel, proc)
        # Two more incremental checkpoints mutate different pages.
        sys.poke(heap.start, b"gen-1")
        sls.checkpoint(group)
        sys.poke(heap.start + 5 * PAGE_SIZE, b"gen-2")
        sls.checkpoint(group)
        sls.barrier(group)
        device.crash()

        kernel2, _sls2, procs, _m, _r = reboot_and_restore(kernel, device)
        rsys = Syscalls(kernel2, procs[0])
        # The overlay: newest deltas win, untouched pages from the base.
        assert rsys.peek(heap.start, 5) == b"gen-1"
        assert rsys.peek(heap.start + 5 * PAGE_SIZE, 5) == b"gen-2"
        assert rsys.peek(heap.start + 9 * PAGE_SIZE, 6) == b"heap-9"

    def test_torn_final_checkpoint_falls_back(self):
        kernel, sls, device, proc, heap, fd, pipe_r, group = boot_and_run()
        sys = Syscalls(kernel, proc)
        sys.poke(heap.start, b"SHOULD-NOT-SURVIVE")
        sls.checkpoint(group)  # not flushed
        device.crash()         # tears it

        kernel2, _sls2, procs, _m, report = reboot_and_restore(kernel, device)
        # The torn checkpoint is gone as a unit — either its superblock
        # never landed (previous generation wins) or its records failed
        # verification (explicit discard).  Only the durable one remains.
        assert report.snapshots_recovered == 1
        rsys = Syscalls(kernel2, procs[0])
        assert rsys.peek(heap.start, 6) == b"heap-0"

    def test_restore_to_named_older_checkpoint(self):
        kernel, sls, device, proc, heap, fd, pipe_r, group = boot_and_run()
        sys = Syscalls(kernel, proc)
        sys.poke(heap.start, b"v2")
        sls.checkpoint(group, name="named-v2")
        sys.poke(heap.start, b"v3")
        sls.checkpoint(group, name="named-v3")
        sls.barrier(group)
        device.crash()

        kernel2, _s, procs, _m, _r = reboot_and_restore(
            kernel, device, snapshot_name="named-v2"
        )
        assert Syscalls(kernel2, procs[0]).peek(heap.start, 2) == b"v2"

    def test_restore_after_forced_consolidation(self):
        """A retention-forced consolidating full checkpoint still has a
        parent, but the post-reboot lineage walk stops at it — so its
        on-disk pagemap must be the complete map, not a delta.  Pages
        last written *before* the consolidation are the ones a delta
        against the parent would silently drop."""
        kernel, sls, device, proc, heap, fd, pipe_r, group = boot_and_run()
        sys = Syscalls(kernel, proc)
        npages = 256 * KIB // PAGE_SIZE
        model = {i: b"heap-%d" % i for i in range(npages)}
        consolidations = 0
        # Default retention: run well past one forced consolidation,
        # each round dirtying a different page.
        for round_no in range(group.retention + 6):
            page = (7 * round_no) % npages
            model[page] = b"round-%d" % round_no
            sys.poke(heap.start + page * PAGE_SIZE, model[page])
            image = sls.checkpoint(group)
            if round_no and not image.incremental:
                consolidations += 1
        assert consolidations >= 1, "retention never forced a full checkpoint"
        sls.barrier(group)
        device.crash()

        kernel2, _s, procs, _m, report = reboot_and_restore(kernel, device)
        assert report.snapshots_discarded == 0
        rsys = Syscalls(kernel2, procs[0])
        wrong = [
            page for page, content in model.items()
            if rsys.peek(heap.start + page * PAGE_SIZE, len(content)) != content
        ]
        assert wrong == []

    def test_restore_after_ancestor_deleted(self):
        """An incremental snapshot is self-contained: its manifest pins
        the pagemap-delta records of its whole lineage, so deleting
        every ancestor snapshot (retention tooling, `sls` maintenance)
        cannot strand it — the post-reboot restore still overlays every
        delta back to the covering full checkpoint."""
        kernel, sls, device, proc, heap, fd, pipe_r, group = boot_and_run()
        sys = Syscalls(kernel, proc)
        npages = 256 * KIB // PAGE_SIZE
        model = {i: b"heap-%d" % i for i in range(npages)}
        for round_no in range(5):
            page = (11 * round_no + 3) % npages
            model[page] = b"incr-%d" % round_no
            sys.poke(heap.start + page * PAGE_SIZE, model[page])
            assert sls.checkpoint(group).incremental
        sls.barrier(group)
        store = group.store_backends()[0].store
        snapshots = store.snapshots()
        assert len(snapshots) == 6
        for snapshot in snapshots[:-1]:
            store.delete_snapshot(snapshot.snap_id)
        store.flush_barrier()
        device.crash()

        kernel2, _s, procs, _m, report = reboot_and_restore(kernel, device)
        assert (report.snapshots_recovered, report.snapshots_discarded) == (1, 0)
        rsys = Syscalls(kernel2, procs[0])
        wrong = [
            page for page, content in model.items()
            if rsys.peek(heap.start + page * PAGE_SIZE, len(content)) != content
        ]
        assert wrong == []
