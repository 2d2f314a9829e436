"""The redesigned keyword-only serverless API and the fleet layer."""

import gc
import warnings

import pytest

from repro.apps.serverless import ServerlessFleet, ServerlessManager
from repro.core.backends import make_disk_backend
from repro.core.orchestrator import SLS
from repro.core.scheduler import TenantQoS
from repro.errors import SlsError
from repro.hw.nvme import NvmeDevice
from repro.mem.page import Page
from repro.obs import names as obs_names
from repro.posix.kernel import Kernel
from repro.sim.rng import RngFactory
from repro.units import GIB


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=8 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


@pytest.fixture
def disk(kernel):
    return make_disk_backend(kernel, NvmeDevice(kernel.clock))


@pytest.fixture
def manager(sls, disk):
    return ServerlessManager(sls, backend=disk)


class TestConstruction:
    def test_backend_is_required_keyword(self, sls):
        with pytest.raises(TypeError):
            ServerlessManager(sls)

    def test_non_backend_rejected_early(self, sls):
        # The old API discovered a donor backend at first deploy; now a
        # misconfigured manager fails at construction.
        with pytest.raises(SlsError, match="StoreBackend"):
            ServerlessManager(sls, backend="disk0")


class TestKeywordValues:
    """``deploy``/``invoke`` check the values they use before they do
    anything."""

    @pytest.mark.parametrize("kwargs", [
        {"customize": "not-bytes"},
        {"tenant": 7},
    ], ids=["customize", "tenant"])
    def test_deploy_rejects(self, kernel, manager, kwargs):
        procs_before = len(kernel.procs)
        with pytest.raises(SlsError, match=next(iter(kwargs))):
            manager.deploy("fn", **kwargs)
        assert len(kernel.procs) == procs_before
        assert not manager.functions

    @pytest.mark.parametrize("kwargs", [
        {"payload": "str"},
        {"lazy": 1},
        {"keep_instance": None},
    ], ids=["payload", "lazy", "keep_instance"])
    def test_invoke_rejects(self, kernel, manager, kwargs):
        manager.deploy("fn", customize=b"v1")
        procs_before = len(kernel.procs)
        with pytest.raises(SlsError, match=next(iter(kwargs))):
            manager.invoke("fn", **kwargs)
        assert len(kernel.procs) == procs_before
        assert manager.functions["fn"].invocations == 0
        # The rejected call used up no instance number.
        before = set(kernel.procs.all_processes())
        manager.invoke("fn", keep_instance=True)
        new = set(kernel.procs.all_processes()) - before
        assert new and all(proc.name.endswith("#1") for proc in new)

    def test_eager_invoke(self, manager):
        manager.deploy("fn", customize=b"v1")
        result = manager.invoke("fn", payload=b"req", lazy=False)
        assert result.output == b"hello, req"
        assert not result.restore.lazy


class TestDeprecationShims:
    """The positional ``DeprecationWarning`` shims are gone: only the
    function name is positional, anything else is a ``TypeError``."""

    def test_positional_deploy_rejected(self, manager):
        with pytest.raises(TypeError):
            manager.deploy("fn", b"delta")
        assert manager.deploy("fn", customize=b"delta").delta_pages > 0

    def test_positional_invoke_rejected(self, manager):
        manager.deploy("fn", customize=b"delta")
        with pytest.raises(TypeError):
            manager.invoke("fn", b"req", True)
        assert manager.invoke("fn", payload=b"req").output == b"hello, req"

    def test_keyword_calls_do_not_warn(self, manager):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            manager.deploy("fn", customize=b"delta")
            manager.invoke("fn", payload=b"req", lazy=True)

    def test_too_many_positionals_rejected(self, manager):
        with pytest.raises(TypeError):
            manager.deploy("fn", b"a", None, "extra")

    def test_misspelled_keyword_rejected(self, manager):
        with pytest.raises(TypeError, match="customise"):
            manager.deploy("fn", customise=b"delta")

    @pytest.mark.parametrize("call, keyword", [
        ("deploy", "backend"),
        ("deploy", "options"),
        ("invoke", "options"),
    ])
    def test_removed_keyword_rejected(self, manager, disk, call, keyword):
        """Every deploy attaches the manager's backend, and each knob
        has one spelling: no per-call override, no options object."""
        with pytest.raises(TypeError, match=keyword):
            getattr(manager, call)("fn", **{keyword: disk})


class TestTenancyAndObservability:
    def test_deploy_bills_tenant(self, kernel, sls, manager):
        sls.scheduler.register_tenant("team-a", qos=TenantQoS())
        deployed = manager.deploy("fn", tenant="team-a")
        assert sls.scheduler.tenant_of(deployed.group) == "team-a"
        assert len(sls.scheduler.completed_lags["team-a"]) == 1

    def test_unknown_tenant_fails_deploy(self, manager):
        with pytest.raises(SlsError, match="unknown tenant"):
            manager.deploy("fn", tenant="ghost")

    def test_cold_start_observed(self, kernel, manager):
        manager.deploy("fn", customize=b"v")
        result = manager.invoke("fn", payload=b"req")
        assert result.cold_start_ns > 0
        reg = kernel.obs.registry
        hist = reg.histogram(obs_names.H_COLD_START, tenant="default")
        counter = reg.counter(
            obs_names.C_SERVERLESS_COLD_STARTS, tenant="default"
        )
        assert hist.count == 1
        assert counter.value == 1


class TestDensity:
    def test_page_maps_share_one_ref_per_stored_page(self, manager, disk):
        """Every function's map names the shared runtime pages through
        the store's one ref per content hash, not one ref per dedup hit."""
        for i in range(4):
            manager.deploy(f"fn-{i}", customize=b"v%d" % i)
        refs = [ref for fn in manager.functions.values()
                for slots in fn.image.copies["disk0"].pages.values()
                for ref in slots.values()]
        hashes = {ref.content_hash for ref in refs}
        assert len(refs) > 2 * len(hashes)  # the runtime dedups
        assert len({id(ref) for ref in refs}) == len(hashes)


def _live_pages() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Page))


class TestExitedInstancesLeaveNothing:
    """Neither the simulated machine nor the host keeps anything of an
    instance that has exited: a fleet's footprint is its live set."""

    def test_invoke_frees_its_frames(self, kernel, manager):
        manager.deploy("fn", customize=b"v")
        frames_before = kernel.phys.allocated_frames
        manager.invoke("fn", keep_instance=False)
        assert kernel.phys.allocated_frames == frames_before

    def test_no_page_object_outlives_its_instance(self, manager):
        pages_before = _live_pages()
        for i in range(4):
            manager.deploy(f"fn-{i}", customize=b"v%d" % i)
        manager.invoke("fn-0")
        manager.invoke("fn-3", lazy=False)
        assert _live_pages() == pages_before


class TestFleet:
    def test_deploy_many_and_storm(self, sls, manager):
        fleet = ServerlessFleet(
            manager, rng=RngFactory(root_seed=7), tenant="fleet"
        )
        fleet.deploy_many(8)
        report = fleet.storm(invocations=30, mean_gap_ns=100_000)
        assert report.invocations == 30
        assert 1 <= report.functions_hit <= 8
        assert 0 < report.cold_start_p50_ns <= report.cold_start_p99_ns
        assert len(sls.scheduler.completed_lags["fleet"]) == 8

    def test_storm_is_deterministic(self):
        def run():
            kernel = Kernel(memory_bytes=8 * GIB)
            sls = SLS(kernel)
            disk = make_disk_backend(kernel, NvmeDevice(kernel.clock))
            manager = ServerlessManager(sls, backend=disk)
            fleet = ServerlessFleet(
                manager, rng=RngFactory(root_seed=7), tenant="fleet"
            )
            fleet.deploy_many(6)
            return fleet.storm(invocations=25, mean_gap_ns=100_000)

        assert run() == run()

    def test_storm_requires_deployment(self, manager):
        fleet = ServerlessFleet(manager, rng=RngFactory())
        with pytest.raises(SlsError, match="at least one"):
            fleet.storm(invocations=5, mean_gap_ns=1000)
