#!/usr/bin/env python
"""Quickstart: transparent persistence in a dozen lines.

Boots a simulated Aurora machine, runs an application that keeps all
its state in memory (no save files, no fsync — "developers design
programs as if they never crash"), checkpoints it continuously, pulls
the plug, and resumes it from disk on a freshly booted kernel.

Run:  python examples/quickstart.py [--architecture]
"""

import sys

from repro import (
    GIB,
    KIB,
    MSEC,
    SLS,
    Kernel,
    NvmeDevice,
    ObjectStore,
    Syscalls,
    make_disk_backend,
)
from repro.core.restore import load_image_from_store
from repro.units import fmt_time

ARCHITECTURE = r"""
    Application      libsls        sls(1)
  ------------------------------------------- Userspace
                     ioctl                     Kernel
   IPC  Socket  VFS  Process  Thread   [POSIX objects]
     \     |     |      |       /
      +----+-----+------+------+
      |     SLS Orchestrator   |------ Virtual Memory
      +-----------+------------+
          |       |        \
      TCP/IP   Object     SLS File
        |      Store       System
  ------------------------------------------- Kernel
       NIC      NVMe       NVDIMM             Hardware
"""


def main() -> int:
    if "--architecture" in sys.argv:
        print(ARCHITECTURE)
        return 0

    # --- boot a machine with an Optane-class NVMe drive ---------------
    kernel = Kernel(hostname="aurora0", memory_bytes=8 * GIB)
    sls = SLS(kernel)
    nvme = NvmeDevice(kernel.clock)

    # --- run an ordinary in-memory application -------------------------
    proc = kernel.spawn("counter-app")
    app = Syscalls(kernel, proc)
    heap = app.mmap(256 * KIB, name="heap")
    app.poke(heap.start, b"count=0000")
    print(f"[{kernel.hostname}] app pid {proc.pid} running,"
          f" state: {app.peek(heap.start, 10).decode()}")

    # --- one command makes it persistent -------------------------------
    group = sls.persist(proc, name="counter-app",
                        period_ns=10 * MSEC, auto_checkpoint=True)
    group.attach(make_disk_backend(kernel, nvme))

    # --- the app just works; Aurora checkpoints 100x/sec behind it -----
    for i in range(1, 6):
        app.poke(heap.start, b"count=%04d" % i)
        kernel.run_for(10 * MSEC)
    sls.barrier(group)
    stats = group.stats
    print(f"[{kernel.hostname}] {stats.checkpoints_taken} checkpoints taken,"
          f" mean stop time {fmt_time(int(stats.mean_stop_ns()))}")

    # --- power failure ---------------------------------------------------
    lost_writes = nvme.crash()
    print(f"[{kernel.hostname}] CRASH (tore {lost_writes} in-flight writes)")

    # --- reboot: a new kernel knows nothing but the device ----------------
    kernel2 = Kernel(hostname="aurora0-rebooted", memory_bytes=8 * GIB,
                     clock=kernel.clock)
    sls2 = SLS(kernel2)
    store = ObjectStore(nvme, mem=kernel2.mem)
    report = store.recover()
    print(f"[{kernel2.hostname}] recovered {report.snapshots_recovered}"
          f" checkpoints from NVMe")
    snapshot = store.snapshots()[-1]
    image = load_image_from_store(store, snapshot)
    procs, metrics = sls2.restore(image, backend_name="disk0")

    # --- the app continues, oblivious to the interruption ------------------
    revived = Syscalls(kernel2, procs[0])
    state = revived.peek(heap.start, 10).decode()
    print(f"[{kernel2.hostname}] app pid {procs[0].pid} resumed in"
          f" {fmt_time(metrics.total_ns)}, state: {state}")
    assert state == "count=0005"
    revived.poke(heap.start, b"count=0006")
    print(f"[{kernel2.hostname}] and keeps running:"
          f" {revived.peek(heap.start, 10).decode()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
