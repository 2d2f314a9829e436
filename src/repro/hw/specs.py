"""Device performance presets.

These numbers calibrate the virtual-time cost models and come from
public datasheets / common measurements, matching the hardware the
paper evaluates on (four Intel Optane 900P NVMe drives, 96 GiB DRAM,
an Intel X722 10 GbE NIC):

- Optane 900P: ~10 µs access latency, ~2.5 GB/s sequential write.
- Enterprise NAND SSD: ~80 µs write latency, ~2 GB/s.
- NVDIMM (e.g. DDR4 NVDIMM-N): ~300 ns access, ~8 GB/s.
- DRAM memcpy: ~10 GB/s effective single-stream copy bandwidth.
- 10 GbE: 1.25 GB/s line rate, ~30 µs one-way latency.
- Spinning disk: ~8 ms seek, ~150 MB/s — included to reproduce the
  paper's historical argument that SLSes were impractical on HDDs.

The paper's Table 3/4 numbers were taken on the Optane configuration;
`EXPERIMENTS.md` compares against runs using :data:`OPTANE_900P`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.units import GIB, MIB, MSEC, NSEC, USEC


@dataclass(frozen=True)
class DeviceSpec:
    """Static performance/capacity description of a storage device."""

    name: str
    #: Fixed per-operation access latency in ns (queue + media).
    read_latency_ns: int
    write_latency_ns: int
    #: Sustained sequential bandwidth in bytes/second.
    read_bandwidth: float
    write_bandwidth: float
    #: Usable capacity in bytes.
    capacity: int
    #: Whether the medium is byte-addressable (NVDIMM) or block (NVMe).
    byte_addressable: bool = False
    #: Whether contents survive a simulated power failure.
    persistent: bool = True
    #: Host CPU cost of one submission doorbell (command build + ring).
    #: Charged to the submitting thread once per doorbell, so a batch
    #: of N commands pays it once instead of N times.  0 disables the
    #: submission model (legacy flat-latency behaviour).
    submit_cost_ns: int = 0
    #: Device-side per-command processing (fetch, PRP walk, FTL
    #: lookup) serialized on the channel on top of the transfer time.
    command_overhead_ns: int = 0
    #: Per-queue in-flight command limit.  Submissions past the limit
    #: stall the submitter until a completion frees a slot; commands
    #: inside the limit overlap their media latencies.  0 = unbounded
    #: (legacy behaviour: every latency overlaps).
    queue_depth: int = 0
    #: Number of independent submission queues (NVMe multi-queue).
    #: Each queue is serviced as its own channel: commands on distinct
    #: queues overlap their transfers in virtual time, modelling the
    #: plane/channel parallelism of modern flash.  1 = the classic
    #: single-queue model.
    num_queues: int = 1


#: Calibration for the NVMe submission model: ~1 µs of host CPU per
#: doorbell (command build, SQ tail update, completion handling) and
#: ~3 µs of device-side per-command processing.  These are deliberately
#: pessimistic for tiny records — exactly the regime the batched
#: checkpoint flush path exists to avoid.
NVME_SUBMIT_NS = 1 * USEC
NVME_COMMAND_OVERHEAD_NS = 3 * USEC


def with_queue_model(
    spec: "DeviceSpec",
    queue_depth: int,
    num_queues: int = 1,
) -> "DeviceSpec":
    """A copy of ``spec`` with the queue-depth submission model armed.

    The benchmark harness uses this to sweep queue depths and queue
    counts; sessions that want the richer model opt in per device.
    ``num_queues > 1`` arms the multi-queue model: each queue is an
    independent channel whose commands overlap with the other queues'.
    """
    if queue_depth < 0:
        raise ValueError("queue depth cannot be negative")
    if num_queues < 1:
        raise ValueError("a device needs at least one submission queue")
    return replace(
        spec,
        queue_depth=queue_depth,
        submit_cost_ns=NVME_SUBMIT_NS,
        command_overhead_ns=NVME_COMMAND_OVERHEAD_NS,
        num_queues=num_queues,
    )


OPTANE_900P = DeviceSpec(
    name="Intel Optane 900P (480GB)",
    read_latency_ns=10 * USEC,
    write_latency_ns=10 * USEC,
    read_bandwidth=2.5 * GIB,
    write_bandwidth=2.2 * GIB,
    capacity=480 * 10**9,
)

NAND_SSD = DeviceSpec(
    name="Enterprise NAND NVMe SSD",
    read_latency_ns=90 * USEC,
    write_latency_ns=30 * USEC,
    read_bandwidth=3.0 * GIB,
    write_bandwidth=2.0 * GIB,
    capacity=960 * 10**9,
)

NVDIMM_SPEC = DeviceSpec(
    name="DDR4 NVDIMM-N",
    read_latency_ns=300 * NSEC,
    write_latency_ns=300 * NSEC,
    read_bandwidth=8.0 * GIB,
    write_bandwidth=6.0 * GIB,
    capacity=32 * GIB,
    byte_addressable=True,
)

DRAM = DeviceSpec(
    name="DRAM (memory backend)",
    read_latency_ns=100 * NSEC,
    write_latency_ns=100 * NSEC,
    read_bandwidth=10.0 * GIB,
    write_bandwidth=10.0 * GIB,
    capacity=96 * GIB,
    byte_addressable=True,
    persistent=False,
)

SPINNING_DISK = DeviceSpec(
    name="7200rpm SATA HDD",
    read_latency_ns=8 * MSEC,
    write_latency_ns=8 * MSEC,
    read_bandwidth=150 * MIB,
    write_bandwidth=150 * MIB,
    capacity=4 * 10**12,
)


@dataclass(frozen=True)
class NetworkSpec:
    """Performance description of a network link (NIC-to-NIC)."""

    name: str
    #: One-way propagation + stack latency in ns.
    latency_ns: int
    #: Line-rate bandwidth in bytes/second.
    bandwidth: float
    #: Maximum transmission unit in bytes (per-packet overhead model).
    mtu: int = 9000


TEN_GBE = NetworkSpec(
    name="Intel X722 10GbE",
    latency_ns=30 * USEC,
    bandwidth=1.25 * GIB,
)

HUNDRED_GBE = NetworkSpec(
    name="100GbE",
    latency_ns=10 * USEC,
    bandwidth=12.5 * GIB,
)

# --- CPU-side cost model -----------------------------------------------------
# The stop-time breakdown in Table 3 is dominated by page-table
# manipulation ("Most of the stop time is spent applying COW tracking
# through page table manipulations").  These constants calibrate the
# per-page and per-object CPU costs on the paper's 2.1 GHz Skylake-SP.


@dataclass(frozen=True)
class CpuCostModel:
    """Per-operation CPU costs charged to the virtual clock, in ns.

    Per-page costs are floats: a 2 GiB working set is 524,288 pages, so
    Table 3's 5145.9 µs full-checkpoint lazy copy corresponds to
    ~9.8 ns/page of COW arming — sub-nanosecond precision matters.
    Accumulation with carry happens in
    :meth:`repro.mem.address_space.MemContext.charge`.
    """

    # --- fault path ---
    #: Trap entry/exit + vm_map lookup for one page fault.
    fault_trap_ns: float = 800.0
    #: Allocate + zero one 4 KiB frame.
    zero_fill_ns: float = 1_000.0
    #: Service one COW fault: allocate frame + copy 4 KiB + remap.
    cow_fault_ns: float = 2_500.0
    #: Install one PTE.
    pte_install_ns: float = 120.0

    # --- checkpoint (Table 3) ---
    #: Write-protect one PTE + TLB-shootdown share (full-walk COW arming).
    pte_cow_arm_ns: float = 9.815
    #: Arm one page off the dirty list (incremental checkpoints touch
    #: only dirtied pages but pay list processing on top of the arm).
    pte_cow_arm_incr_ns: float = 13.56
    #: Walk/skip one clean PTE when a scan is unavoidable.
    pte_scan_ns: float = 3.0
    #: Fixed orchestration cost of one serialization barrier.
    ckpt_fixed_ns: float = 145_700.0
    #: Per-resident-page metadata enumeration (full checkpoints record
    #: the complete page-run layout; incrementals reuse the last one).
    page_meta_full_ns: float = 0.054
    #: Serialize the metadata of one kernel object (proc/fd/vnode/...).
    object_serialize_ns: float = 900.0
    #: Pause/resume one process at the barrier.
    proc_stop_ns: float = 4_000.0

    # --- restore (Table 4) ---
    #: Fixed cost of instantiating a restored address space.
    aspace_create_ns: float = 137_900.0
    #: Rebuild one address-space map entry at restore.
    map_entry_restore_ns: float = 350.0
    #: COW-share one image page into the restored space (no copy).
    pte_share_ns: float = 0.663
    #: Fixed metadata-restore orchestration cost.
    restore_fixed_ns: float = 236_500.0
    #: Recreate one kernel object at restore.
    object_restore_ns: float = 246.0
    #: Reading the image from the store implicitly restores some state;
    #: fixed restore costs shrink by this factor on from-disk restores
    #: (paper: "restoring metadata state for disk restores is slightly
    #: faster, because reading in the checkpoint implicitly restores
    #: some application state").
    implicit_restore_discount: float = 0.85

    # --- write-path codec (repro.objstore.codec) ---
    #: Compress one 4 KiB page with an LZ4-class fast compressor
    #: (~4 GB/s single-core, 0.25 ns/byte).  The codec stores a page
    #: compressed only when the bytes saved buy back more device
    #: transfer time than this costs (the JASS crossover).
    page_compress_ns: float = 1_024.0
    #: Inflate one compressed page at read/restore time.
    page_decompress_ns: float = 512.0
    #: Splice a dirty-extent list into a delta record (no compressor
    #: pass — the extents were tracked for free at write time).
    delta_encode_ns: float = 200.0
    #: Apply one delta record onto its resolved base content.
    delta_apply_ns: float = 300.0

    # --- generic ---
    #: Fixed cost of fork(2): duplicate the proc, vm map, fd table.
    proc_fork_ns: float = 120_000.0
    #: Fixed cost of spawning a fresh program (fork + execve: ELF load,
    #: dynamic linking, runtime bring-up) — what serverless cold starts
    #: pay and Aurora's warm restores skip.
    proc_exec_ns: float = 5_000_000.0
    #: Copy one 4 KiB page between DRAM buffers.
    page_copy_ns: float = 400.0
    #: Content-hash one 4 KiB page (dedup index insert).
    page_hash_ns: float = 600.0
    #: Syscall entry/exit overhead.
    syscall_ns: float = 300.0


DEFAULT_CPU = CpuCostModel()
