"""Fleet-scale serverless scenario behind ``sls fleet`` (paper §4).

One simulated machine holds *thousands* of deployed functions on one
object store — each a small dedup'd delta over the shared runtime
image — and a seeded Poisson-ish invocation storm drives warm starts
(lazy restore + hot prefetch) against it.  Every deploy's checkpoint
goes through the per-tenant QoS scheduler, so the scenario reports the
full tenancy picture: cold-start percentiles, flush-lag percentiles,
admission rejections, and store density.

The **noisy-neighbor** sub-scenario pits a burst-happy tenant against
a well-behaved one on the same NVMe queues, twice: unthrottled
(baseline — the noisy burst queues ahead and blows the steady tenant's
flush-lag SLO) and under QoS (admission caps + per-tenant inflight
budget + WFQ keep the steady tenant inside its SLO).  Both runs are
pure virtual-clock arithmetic, so ``sls bench`` gates the comparison
byte-stably.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.serverless import ServerlessFleet, ServerlessManager
from repro.core.backends import DiskBackend
from repro.core.orchestrator import SLS
from repro.core.scheduler import TenantQoS
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P, with_queue_model
from repro.obs import names as obs_names
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.sim.rng import RngFactory
from repro.units import GIB, PAGE_SIZE

#: NVMe shape every fleet cell runs on: the PR-5 multi-queue model
FLEET_NUM_QUEUES = 4
FLEET_QUEUE_DEPTH = 8

#: fleet sizes the bench sweeps (1x / 10x / 100x)
FLEET_SIZES = (10, 100, 1000)

#: storm arrivals per cell, capped so the 100x cell stays CI-sized
STORM_INVOCATIONS = 200
STORM_MEAN_GAP_NS = 100_000


def _percentile(sorted_values: list, pct: int) -> int:
    if not sorted_values:
        return 0
    rank = (len(sorted_values) * pct + 99) // 100
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


def build_fleet_world(*, tenant: str = "fleet",
                      qos: Optional[TenantQoS] = None,
                      max_inflight_total: Optional[int] = None):
    """One fresh machine + shared store + fleet, ready to deploy into."""
    kernel = Kernel(hostname="fleet", memory_bytes=64 * GIB)
    spec = with_queue_model(
        OPTANE_900P, FLEET_QUEUE_DEPTH, num_queues=FLEET_NUM_QUEUES
    )
    device = NvmeDevice(kernel.clock, spec=spec, name="fleet-nvme")
    sls = SLS(kernel)
    sls.scheduler.max_inflight_total = max_inflight_total
    store = ObjectStore(device, mem=kernel.mem)
    backend = DiskBackend("disk0", store)
    backend.bind(kernel)
    manager = ServerlessManager(sls, backend=backend)
    fleet = ServerlessFleet(manager, rng=RngFactory(), tenant=tenant)
    if qos is not None:
        sls.scheduler.register_tenant(tenant, qos=qos)
    return kernel, sls, manager, fleet


def fleet_cell(functions: int, *,
               invocations: int = STORM_INVOCATIONS) -> dict:
    """Deploy ``functions`` functions, storm them, report the cell."""
    kernel, sls, manager, fleet = build_fleet_world()
    fleet.deploy_many(functions)
    report = fleet.storm(
        invocations=min(invocations, 2 * functions),
        mean_gap_ns=STORM_MEAN_GAP_NS,
    )
    lags = sorted(sls.scheduler.completed_lags.get(fleet.tenant, []))
    density = manager.density_report()
    return {
        "functions": int(functions),
        "invocations": int(report.invocations),
        "functions_hit": int(report.functions_hit),
        "cold_start_p50_ns": int(report.cold_start_p50_ns),
        "cold_start_p99_ns": int(report.cold_start_p99_ns),
        "flush_lag_p50_ns": int(_percentile(lags, 50)),
        "flush_lag_p99_ns": int(_percentile(lags, 99)),
        "admission_rejected": int(sls.scheduler.tickets_rejected),
        "dedup_ratio_x1000": int(density["dedup_ratio"] * 1000),
        "physical_bytes": int(density["physical_bytes"]),
    }


# --- noisy neighbor -----------------------------------------------------------

#: rounds of contention, noisy checkpoints per round
NOISY_ROUNDS = 4
NOISY_BURST = 6
#: dirty pages per checkpoint: the noisy tenant redirties a big heap,
#: the steady tenant a small one
NOISY_PAGES = 2048
STEADY_PAGES = 32
#: admitted-but-undispatched noisy requests before rejection (QoS mode)
NOISY_MAX_PENDING = 4
#: the steady tenant's contract: submit-to-durable within 500 us
STEADY_SLO_NS = 500_000


def noisy_neighbor_cell(*, qos: bool) -> dict:
    """Two tenants, one device: burst traffic vs a flush-lag SLO.

    ``qos=False`` is the unthrottled baseline (scheduler dispatches
    everything at submit, so the noisy burst's flushes queue ahead of
    the steady tenant's); ``qos=True`` adds a global inflight budget,
    a per-tenant inflight cap and admission cap on the noisy tenant,
    and WFQ weight on the steady one.
    """
    kernel = Kernel(hostname="noisy", memory_bytes=16 * GIB)
    spec = with_queue_model(
        OPTANE_900P, FLEET_QUEUE_DEPTH, num_queues=FLEET_NUM_QUEUES
    )
    device = NvmeDevice(kernel.clock, spec=spec, name="noisy-nvme")
    sls = SLS(kernel)
    scheduler = sls.scheduler
    if qos:
        scheduler.max_inflight_total = 2
        scheduler.register_tenant("steady", qos=TenantQoS(
            weight=8, flush_slo_ns=STEADY_SLO_NS,
        ))
        scheduler.register_tenant("noisy", qos=TenantQoS(
            weight=1, max_inflight=1, max_pending=NOISY_MAX_PENDING,
        ))
    else:
        scheduler.register_tenant("steady", qos=TenantQoS(
            flush_slo_ns=STEADY_SLO_NS,
        ))
        scheduler.register_tenant("noisy", qos=TenantQoS())
    store = ObjectStore(device, mem=kernel.mem)
    # The cell pins *scheduler* behaviour — the contrast needs the noisy
    # burst to saturate the queues with full-page traffic, so model both
    # tenants' heaps as incompressible (encrypted / pre-compressed
    # content the write-path codec stores RAW).
    store.codec.enabled = False
    backend = DiskBackend("disk0", store)
    backend.bind(kernel)

    def make_group(name: str, pages: int, tenant: str):
        proc = kernel.spawn(name)
        sysc = Syscalls(kernel, proc)
        heap = sysc.mmap(pages * PAGE_SIZE, name="heap")
        sysc.populate(
            heap.start, pages * PAGE_SIZE,
            fill_fn=lambda i: b"%s-%08d" % (name.encode(), i),
        )
        group = sls.persist(proc, name=name)
        group.attach(backend)
        scheduler.assign(group, tenant=tenant)
        return group, sysc, heap, pages

    steady = make_group("steady-app", STEADY_PAGES, "steady")
    noisy = make_group("noisy-app", NOISY_PAGES, "noisy")

    def redirty(world, marker: int) -> None:
        group, sysc, heap, pages = world
        for page in range(pages):
            sysc.poke(
                heap.start + page * PAGE_SIZE, b"m%08d-%08d" % (marker, page)
            )

    for round_no in range(NOISY_ROUNDS):
        # The noisy tenant bursts first — every submission with a fresh
        # fully-dirty heap, so each checkpoint flushes the whole thing —
        # then the steady tenant's one checkpoint lands behind the
        # burst: the worst case its SLO has to survive.
        for burst in range(NOISY_BURST):
            redirty(noisy, round_no * NOISY_BURST + burst)
            scheduler.submit(noisy[0])
        redirty(steady, round_no)
        scheduler.submit(steady[0])
        sls.barrier(steady[0])
        sls.barrier(noisy[0])

    steady_lags = sorted(scheduler.completed_lags.get("steady", []))
    noisy_lags = sorted(scheduler.completed_lags.get("noisy", []))
    steady_violations = int(
        kernel.obs.registry.counter(
            obs_names.C_SCHED_SLO_VIOLATIONS, tenant="steady"
        ).value
    )
    return {
        "steady_checkpoints": len(steady_lags),
        "noisy_checkpoints": len(noisy_lags),
        "steady_flush_p99_ns": int(_percentile(steady_lags, 99)),
        "noisy_flush_p99_ns": int(_percentile(noisy_lags, 99)),
        "steady_slo_violations": steady_violations,
        "steady_slo_violated": steady_violations > 0,
        "noisy_rejected": int(scheduler.tickets_rejected),
    }


# --- the `sls fleet` report ---------------------------------------------------

def run_fleet(functions: int, *, invocations: int) -> dict:
    """Everything ``sls fleet`` prints: one cell + the QoS comparison."""
    cell = fleet_cell(functions, invocations=invocations)
    baseline = noisy_neighbor_cell(qos=False)
    protected = noisy_neighbor_cell(qos=True)
    return {
        "fleet": cell,
        "noisy_neighbor": {"baseline": baseline, "qos": protected},
    }


def render_fleet(report: dict) -> str:
    cell = report["fleet"]
    base = report["noisy_neighbor"]["baseline"]
    prot = report["noisy_neighbor"]["qos"]
    lines = [
        f"fleet: {cell['functions']} functions, "
        f"{cell['invocations']} storm invocations "
        f"({cell['functions_hit']} functions hit)",
        f"  cold start  p50 {cell['cold_start_p50_ns'] / 1000:.0f} us   "
        f"p99 {cell['cold_start_p99_ns'] / 1000:.0f} us",
        f"  flush lag   p50 {cell['flush_lag_p50_ns'] / 1000:.0f} us   "
        f"p99 {cell['flush_lag_p99_ns'] / 1000:.0f} us",
        f"  density     {cell['dedup_ratio_x1000'] / 1000:.2f}x dedup, "
        f"{cell['physical_bytes'] / (1 << 20):.1f} MiB physical",
        f"  admission   {cell['admission_rejected']} rejected",
        "",
        "noisy neighbor (steady tenant SLO "
        f"{STEADY_SLO_NS / 1000:.0f} us):",
        f"  unthrottled: steady p99 {base['steady_flush_p99_ns'] / 1000:.0f} us"
        f" -> {base['steady_slo_violations']} SLO violations",
        f"  with QoS:    steady p99 {prot['steady_flush_p99_ns'] / 1000:.0f} us"
        f" -> {prot['steady_slo_violations']} SLO violations"
        f" ({prot['noisy_rejected']} noisy requests rejected)",
    ]
    return "\n".join(lines)
