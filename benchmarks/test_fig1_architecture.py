"""Figure 1 — the Aurora system architecture.

The figure is a diagram, not a measurement; this benchmark verifies
that every depicted component exists and is wired the way the figure
draws it — application / libsls / sls CLI above the kernel boundary;
orchestrator, SLS file system, object store, VM, IPC/socket/VFS/
process/thread objects inside; NIC / NVMe / NVDIMM below — and renders
the ASCII equivalent.
"""

from conftest import report

from repro.apps.base import SimApp
from repro.cli.session import SlsSession
from repro.core.api import AuroraApi
from repro.core.backends import MemoryBackend, NvdimmBackend, make_disk_backend
from repro.core.orchestrator import SLS
from repro.hw.netdev import NetworkLink
from repro.hw.nvdimm import NvdimmDevice
from repro.hw.nvme import NvmeDevice
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.serial.registry import registered_types
from repro.slsfs.fs import SlsFS

DIAGRAM = r"""
    Application      libsls        sls(1)
  ------------------------------------------- Userspace
                     ioctl                     Kernel
   IPC  Socket  VFS  Process  Thread   [POSIX objects]
    \     |      |      |       /
     +----+------+------+------+
     |      SLS Orchestrator   |----- Virtual Memory
     +------------+------------+
          |       |        \
     TCP/IP   Object     SLS File
       |      Store       System
  ------------------------------------------- Kernel
      NIC      NVMe       NVDIMM              Hardware
"""


def test_fig1_every_component_exists_and_connects(benchmark):
    def build():
        kernel = Kernel()                       # the OS
        sls = SLS(kernel)                       # SLS orchestrator
        nvme = NvmeDevice(kernel.clock)         # NVMe
        nvdimm = NvdimmDevice(kernel.clock)     # NVDIMM
        link = NetworkLink(kernel.clock)        # NIC / TCP-IP
        app = SimApp(kernel, "application")     # Application
        api = AuroraApi(sls, app.proc)          # libsls
        store = ObjectStore(nvme, mem=kernel.mem)   # Object store
        fs = SlsFS(store, kernel.registry)      # SLS file system
        kernel.vfs.mount("/sls", fs)            # VFS integration
        group = sls.persist(app.proc, name="application")
        group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock, name="nvme1")))
        group.attach(NvdimmBackend("nvdimm0", ObjectStore(nvdimm, mem=kernel.mem)))
        group.attach(MemoryBackend("memory"))
        image = sls.checkpoint(group)           # ioctl path end-to-end
        sls.barrier(group)
        return kernel, sls, group, image, fs

    kernel, sls, group, image, fs = benchmark.pedantic(
        build, rounds=1, iterations=1
    )

    # The POSIX object row of the figure: per-type serializers exist.
    for otype in ("socketfile", "pipeend", "vnodefile"):
        assert otype in registered_types()
    # The orchestrator reached every backend (NVMe, NVDIMM, memory).
    assert image.durable_on == {"disk0", "nvdimm0", "memory"}
    # The VM subsystem hooks are installed (checkpoint COW engine).
    assert kernel.mem.frozen_write_handler is not None
    # The file system really sits on the object store.
    assert fs.store.device.spec.name.startswith("Intel Optane")

    report("fig1", "Figure 1: basic system diagram (all components live)",
           ["Component", "Status"],
           [[line, ""] for line in DIAGRAM.strip("\n").splitlines()])
