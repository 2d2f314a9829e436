"""Serverless runtime on Aurora (paper §4).

"Aurora can be used to optimize serverless warm starts using its lazy
restore, combined with its ability to distribute and scale function
runtimes. ... The object store represents each function as a small
delta over the runtime container's checkpoint.  All functions share
this data, allowing machines to potentially hold billions of
functions. ... This sharing causes instances to warm each other up:
an instance faulting a page into memory shares it with the rest using
COW."

:class:`ServerlessManager` deploys functions as checkpoints layered on
a shared runtime image and invokes them by restoring new instances —
warm starts measured in microseconds of restore, density measured as
store bytes per deployed function.  :class:`ServerlessFleet` scales
that to thousands of deployed functions on one store, billed to a
scheduler tenant and driven by a seeded Poisson-ish invocation storm.

The public surface follows the libsls keyword-only convention (pinned
by ``TestKeywordOnlySurface`` in the core API tests): every knob is
keyword-only and checked by the method that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.hello import HelloWorldApp
from repro.core.checkpoint import CheckpointImage, StoreCopy
from repro.core.group import PersistenceGroup
from repro.core.metrics import RestoreMetrics
from repro.core.orchestrator import SLS
from repro.errors import SlsError
from repro.obs import names as obs_names
from repro.sim.rng import RngFactory, zipf_sampler
from repro.units import KIB


@dataclass
class DeployedFunction:
    name: str
    image: CheckpointImage
    group: PersistenceGroup
    delta_pages: int
    invocations: int = 0


@dataclass
class InvocationResult:
    function: str
    restore: RestoreMetrics
    major_faults: int
    output: bytes
    #: invoke-to-ready virtual time: restore plus first-touch faults
    cold_start_ns: int = 0


class ServerlessManager:
    """Deploys and invokes functions as Aurora checkpoints.

    The store backend is a construction-time contract: every deployed
    function checkpoints to it, so a misconfigured manager fails at
    construction instead of at the first deploy.
    """

    def __init__(self, sls: SLS, *, backend):
        from repro.core.backends import StoreBackend

        if not isinstance(backend, StoreBackend):
            raise SlsError(
                "ServerlessManager requires backend= (a StoreBackend) at "
                f"construction, got {backend!r}"
            )
        self.sls = sls
        self.kernel = sls.kernel
        self.backend = backend
        self.backend_name = backend.name
        self.functions: dict[str, DeployedFunction] = {}
        self._instance_seq = 0

    # -- deployment -------------------------------------------------------------

    def deploy(
        self,
        name: str,
        *,
        customize: Optional[bytes] = None,
        tenant: Optional[str] = None,
    ) -> DeployedFunction:
        """Initialize a function runtime and checkpoint it warm.

        Every function boots the *same* runtime (identical pages →
        deduplicated in the store); ``customize`` is the function's own
        code/config delta (a few pages; ``None`` deploys the bare
        runtime).  ``tenant`` is the scheduler tenant its checkpoints
        bill to (``None``: the default tenant).
        """
        if customize is not None and not isinstance(customize, bytes):
            raise SlsError(
                f"deploy: customize must be bytes/None, got {customize!r}"
            )
        if tenant is not None and not isinstance(tenant, str):
            raise SlsError(f"deploy: tenant must be str/None, got {tenant!r}")
        if name in self.functions:
            raise SlsError(f"function {name!r} already deployed")
        container = self.kernel.create_container(f"fn-{name}")
        app = HelloWorldApp(self.kernel, container=container, name=f"fn-{name}")
        app.initialize()
        if customize:
            # The function-specific delta: a few pages of its own code.
            code = app.sys.mmap(64 * KIB, name="fn-code")
            app.sys.populate(
                code.start, 64 * KIB,
                fill_fn=lambda i: b"%s:%d:%s" % (name.encode(), i, customize),
            )
        group = self.sls.persist(container, name=name)
        group.attach(self.backend)
        if tenant is not None:
            self.sls.scheduler.assign(group, tenant=tenant)
        # Through the QoS scheduler: at fleet scale many deploys and
        # periodic re-checkpoints contend for the device, and the
        # tenant's budgets decide whose flush goes out when.
        ticket = self.sls.checkpoint_async(group, name=f"{name}@warm")
        if ticket.status == "rejected":
            raise SlsError(
                f"deploy of {name!r} rejected by admission control: "
                f"{ticket.reason}"
            )
        self.sls.barrier(group)
        if ticket.image is None:
            raise SlsError(
                f"deploy of {name!r} failed to checkpoint: {ticket.reason}"
            )
        image = ticket.image
        # The deployed image is the artifact; the builder instance exits.
        for proc in group.processes():
            self.kernel.exit(proc)
            self.kernel.reap(proc)
        deployed = DeployedFunction(
            name=name,
            image=image,
            group=group,
            delta_pages=image.metrics.pages_captured,
        )
        self.functions[name] = deployed
        return deployed

    # -- invocation ---------------------------------------------------------------------

    def invoke(
        self,
        name: str,
        *,
        payload: bytes = b"world",
        lazy: bool = True,
        keep_instance: bool = False,
    ) -> InvocationResult:
        """Warm-start the function: restore a fresh instance and run it.

        ``payload`` is the request poked into the instance's heap.
        ``lazy`` restores pages on demand (the paper's warm-start path)
        and is checked by :meth:`~repro.core.orchestrator.SLS.restore`.
        ``keep_instance`` leaves the restored instance running instead
        of exiting it after the invocation.
        """
        if not isinstance(payload, bytes):
            raise SlsError(f"invoke: payload must be bytes, got {payload!r}")
        if not isinstance(keep_instance, bool):
            raise SlsError(
                f"invoke: keep_instance must be bool, got {keep_instance!r}"
            )
        from repro.posix.syscalls import Syscalls

        deployed = self.functions.get(name)
        if deployed is None:
            raise SlsError(f"no function {name!r}")
        faults_before = self.kernel.mem.stats.major
        started_at = self.kernel.clock.now
        # the first store copy, else the in-memory one
        backend = next((b for b, copy in deployed.image.copies.items()
                        if isinstance(copy, StoreCopy)), None)
        procs, metrics = self.sls.restore(
            deployed.image,
            backend_name=backend,
            lazy=lazy,
            new_instance=True,
            name_suffix=f"#{self._instance_seq + 1}",
        )
        self._instance_seq += 1
        # Drive one invocation on the restored instance.
        instance = procs[0]
        sys = Syscalls(self.kernel, instance)
        heap = next(
            (e for e in instance.aspace.entries if e.name == "heap"), None
        )
        output = b""
        if heap is not None:
            sys.poke(heap.start, payload[:64])  # faults pages in if lazy
            output = b"hello, " + payload
        # Cold start = invoke-to-ready: restore plus the first-touch
        # faults of actually running the handler.
        cold_start_ns = self.kernel.clock.now - started_at
        tenant = self.sls.scheduler.tenant_of(deployed.group)
        reg = self.kernel.obs.registry
        reg.histogram(obs_names.H_COLD_START, tenant=tenant).observe(
            cold_start_ns
        )
        reg.counter(obs_names.C_SERVERLESS_COLD_STARTS, tenant=tenant).inc()
        deployed.invocations += 1
        major_faults = self.kernel.mem.stats.major - faults_before
        if not keep_instance:
            for proc in procs:
                self.kernel.exit(proc)
                self.kernel.reap(proc)
        return InvocationResult(
            function=name,
            restore=metrics,
            major_faults=major_faults,
            output=output,
            cold_start_ns=cold_start_ns,
        )

    # -- density (the dedup story) ----------------------------------------------------------

    def density_report(self) -> dict:
        """Logical vs physical bytes across all deployed functions."""
        store = self.backend.store
        logical = sum(
            f.image.logical_bytes() for f in self.functions.values()
        )
        physical = store.physical_bytes()
        return {
            "functions": len(self.functions),
            "logical_bytes": logical,
            "physical_bytes": physical,
            "dedup_ratio": (logical / physical) if physical else 0.0,
            "unique_pages": len(store.dedup),
            "bytes_deduped": store.dedup.stats.bytes_deduped,
        }


# --- fleet scale ---------------------------------------------------------------

#: unit-exponential quantiles ×1000, sampled at 32 bucket midpoints.
#: Arrival gaps draw one entry uniformly and scale the mean gap by it
#: — a Poisson-ish process in pure integer arithmetic, so the storm's
#: virtual-time schedule is byte-stable for ``sls bench``.
_EXP_QUANTILES_X1000 = (
    16, 48, 81, 116, 152, 189, 227, 267, 309, 352, 398, 445, 495, 548,
    604, 662, 725, 792, 863, 940, 1023, 1114, 1214, 1326, 1451, 1594,
    1761, 1962, 2213, 2549, 3060, 4159,
)


def _percentile(sorted_values: list, pct: int) -> int:
    """Nearest-rank percentile of a sorted list (integer arithmetic)."""
    if not sorted_values:
        return 0
    rank = (len(sorted_values) * pct + 99) // 100
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


@dataclass
class StormReport:
    """What one seeded invocation storm measured."""

    invocations: int
    duration_ns: int
    cold_start_p50_ns: int
    cold_start_p99_ns: int
    major_faults: int
    #: distinct functions the zipf-skewed storm actually hit
    functions_hit: int


class ServerlessFleet:
    """Thousands of deployed functions on one store, one tenant.

    Deploys share the manager's backend (dedup makes each function a
    small delta over the common runtime image) and bill their
    checkpoints to ``tenant``; :meth:`storm` drives a seeded
    Poisson-ish invocation storm whose cold starts are lazy restores
    of the shared base image.
    """

    def __init__(self, manager: ServerlessManager, *,
                 rng: Optional[RngFactory] = None, tenant: str = "fleet"):
        self.manager = manager
        self.kernel = manager.kernel
        self.rng = rng if rng is not None else RngFactory()
        self.tenant = tenant
        from repro.core.scheduler import DEFAULT_TENANT, TenantQoS

        scheduler = manager.sls.scheduler
        if tenant != DEFAULT_TENANT and tenant not in scheduler._tenants:
            scheduler.register_tenant(tenant, qos=TenantQoS())

    def deploy_many(self, count: int, *, prefix: str = "fn",
                    customize: bool = True) -> list[DeployedFunction]:
        """Deploy ``count`` functions named ``{prefix}-0000``…

        ``customize=True`` gives each function its own few-page code
        delta (the realistic density case); ``False`` deploys bare
        runtimes that dedup to almost nothing.
        """
        deployed = []
        for i in range(count):
            name = f"{prefix}-{i:04d}"
            delta = b"v%d" % i if customize else None
            deployed.append(
                self.manager.deploy(name, customize=delta, tenant=self.tenant)
            )
        return deployed

    def storm(self, *, invocations: int, mean_gap_ns: int,
              lazy: bool = True, skew: float = 0.99) -> StormReport:
        """Drive a seeded Poisson-ish invocation storm over the fleet.

        Arrivals are scheduled on the kernel event queue with
        integer-exponential gaps around ``mean_gap_ns``; targets are
        zipf-skewed over the deployed functions (hot functions get most
        of the traffic, matching production invocation skew).  Returns
        exact nearest-rank cold-start percentiles.
        """
        names = sorted(self.manager.functions)
        if not names:
            raise SlsError("storm needs at least one deployed function")
        gap_rng = self.rng.stream("storm.gaps")
        target_rng = self.rng.stream("storm.targets")
        pick = zipf_sampler(target_rng, len(names), skew)
        started_at = self.kernel.clock.now
        when = started_at
        results: list[InvocationResult] = []

        def fire(fn: str) -> None:
            results.append(
                self.manager.invoke(fn, lazy=lazy)
            )

        last = started_at
        for _ in range(invocations):
            q = _EXP_QUANTILES_X1000[gap_rng.randrange(len(_EXP_QUANTILES_X1000))]
            when += max(1, mean_gap_ns * q // 1000)
            fn = names[pick()]
            self.kernel.events.schedule(when, lambda fn=fn: fire(fn))
            last = when
        self.kernel.events.run_until(last)
        lat = sorted(r.cold_start_ns for r in results)
        return StormReport(
            invocations=len(results),
            duration_ns=self.kernel.clock.now - started_at,
            cold_start_p50_ns=_percentile(lat, 50),
            cold_start_p99_ns=_percentile(lat, 99),
            major_faults=sum(r.major_faults for r in results),
            functions_hit=len({r.function for r in results}),
        )
