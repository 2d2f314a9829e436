"""The Table 2 surface: explicit keywords, checked where they are used.

``sls_checkpoint``/``sls_restore`` take explicit keyword-only
parameters, and ``SLS.checkpoint``/``SLS.restore`` check their values,
so every caller gets the same ``SlsError`` for a bad one.  The
historical positional and ``backend_name=`` shapes are gone: they fail
as any other wrong call does, with ``TypeError``.
"""

import importlib
import inspect
import pkgutil

import pytest

from repro.core.api import AuroraApi
from repro.core.backends import MemoryBackend, make_disk_backend
from repro.core.orchestrator import SLS
from repro.errors import SlsError
from repro.hw.nvme import NvmeDevice
from repro.posix.kernel import Kernel
from repro.posix.syscalls import Syscalls
from repro.units import GIB, KIB


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=4 * GIB)


@pytest.fixture
def sls(kernel):
    return SLS(kernel)


@pytest.fixture
def world(kernel, sls):
    proc = kernel.spawn("app")
    sys = Syscalls(kernel, proc)
    entry = sys.mmap(64 * KIB, name="heap")
    sys.populate(entry.start, 64 * KIB, fill=b"v1")
    group = sls.persist(proc, name="app")
    group.attach(make_disk_backend(kernel, NvmeDevice(kernel.clock)))
    group.attach(MemoryBackend("memory"))
    api = AuroraApi(sls, proc)
    return proc, sys, entry, group, api


class TestValueChecks:
    """Each knob is checked by the function that uses it, before it
    does anything, whichever caller passed it."""

    @pytest.mark.parametrize("kwargs", [
        {"full": "yes"},
        {"name": 7},
        {"sync": None},
    ], ids=["full", "name", "sync"])
    def test_checkpoint_rejects(self, world, sls, kwargs):
        _, _, _, group, api = world
        with pytest.raises(SlsError, match=next(iter(kwargs))):
            sls.checkpoint(group, **kwargs)
        with pytest.raises(SlsError, match=next(iter(kwargs))):
            api.sls_checkpoint(**kwargs)
        assert group.stats.checkpoints_taken == 0

    @pytest.mark.parametrize("kwargs", [
        {"backend_name": 3},
        {"lazy": "maybe"},
        {"new_instance": 1},
        {"record_faults": "yes"},
        {"name_suffix": 5, "new_instance": True},
        {"name_suffix": "-clone"},
    ], ids=["backend_name", "lazy", "new_instance", "record_faults",
            "name_suffix-type", "name_suffix-without-new_instance"])
    def test_restore_rejects(self, world, kernel, sls, kwargs):
        _, _, _, group, _ = world
        image = sls.checkpoint(group)
        procs_before = len(kernel.procs)
        with pytest.raises(SlsError, match=next(iter(kwargs))):
            sls.restore(image, **kwargs)
        assert len(kernel.procs) == procs_before

    def test_checkpoint_async_rejects_before_queueing(self, world, sls):
        _, _, _, group, _ = world
        with pytest.raises(SlsError, match="name"):
            sls.checkpoint_async(group, name=7)
        assert sls.scheduler.tickets_submitted == 0
        ticket = sls.checkpoint_async(group, name="queued")
        sls.barrier(group)
        assert ticket.image.name == "queued"

    def test_full_and_name_are_keyword_only(self, world, sls):
        _, _, _, group, _ = world
        with pytest.raises(TypeError):
            sls.checkpoint(group, True)
        assert sls.checkpoint(group, full=True, name="f").name == "f"


class TestCheckpointApi:
    def test_keyword_form(self, world):
        *_, api = world
        image = api.sls_checkpoint(name="manual", full=True)
        assert image.name == "manual"

    def test_sync_blocks_until_durable(self, world):
        _, _, _, group, api = world
        image = api.sls_checkpoint(sync=True)
        assert image.durable_on  # barrier ran before the call returned

    def test_positional_form_rejected(self, world):
        *_, api = world
        with pytest.raises(TypeError):
            api.sls_checkpoint("legacy", True)

    def test_too_many_positionals_rejected(self, world):
        *_, api = world
        with pytest.raises(TypeError):
            api.sls_checkpoint("a", True, "extra")


class TestRestoreApi:
    def test_keyword_form(self, world, kernel):
        proc, sys, entry, group, api = world
        api.sls_checkpoint(name="base")
        sys.poke(entry.start, b"MUTATED")
        procs, _ = api.sls_restore(
            name="base", new_instance=True, name_suffix="-clone"
        )
        rsys = Syscalls(kernel, procs[0])
        assert rsys.peek(entry.start, 2) == b"v1"
        assert procs[0].name.endswith("-clone")

    def test_options_keyword_rejected(self, world):
        *_, api = world
        api.sls_checkpoint()
        with pytest.raises(TypeError, match="options"):
            api.sls_restore(options=None)
        with pytest.raises(TypeError, match="options"):
            api.sls_checkpoint(options=None)

    def test_missing_image_rejected(self, world):
        *_, api = world
        with pytest.raises(SlsError, match="no image"):
            api.sls_restore(name="never-taken")

    def test_misspelled_option_fails_loudly(self, world):
        """The old ``**kwargs`` passthrough swallowed typos silently."""
        *_, api = world
        api.sls_checkpoint()
        with pytest.raises(TypeError, match="new_instnace"):
            api.sls_restore(new_instnace=True)

    def test_positional_lazy_rejected(self, world):
        *_, api = world
        api.sls_checkpoint(name="base")
        with pytest.raises(TypeError):
            api.sls_restore("base", True)
        procs, metrics = api.sls_restore("base", lazy=True)
        assert procs and metrics.lazy

    def test_backend_name_alias_rejected(self, world):
        *_, api = world
        api.sls_checkpoint(sync=True)
        with pytest.raises(TypeError, match="'backend'"):
            api.sls_restore(backend="memory", new_instance=True)
        procs, _ = api.sls_restore(backend_name="memory", new_instance=True)
        assert procs


class TestLogLocation:
    """A fresh ``AuroraApi`` handle must find the group's existing log.

    Regression: ``sls_log_replay``/``sls_log_truncate`` used to return
    ``[]``/``0`` whenever ``self._log`` was unset — exactly the state a
    handle is in right after a restore, which is when replay matters.
    """

    def test_replay_finds_existing_log(self, world, sls):
        proc, _, _, _, api = world
        api.sls_ntflush(b"record-1")
        api.sls_ntflush(b"record-2")
        fresh = AuroraApi(sls, proc)
        replayed = fresh.sls_log_replay()
        assert [data for _, data in replayed] == [b"record-1", b"record-2"]

    def test_truncate_finds_existing_log(self, world, sls):
        proc, _, _, _, api = world
        first = api.sls_ntflush(b"old")
        api.sls_ntflush(b"new")
        fresh = AuroraApi(sls, proc)
        assert fresh.sls_log_truncate(first.seq + 1) == 1
        assert [d for _, d in fresh.sls_log_replay()] == [b"new"]

    def test_ntflush_reuses_existing_log(self, world, sls):
        proc, _, _, _, api = world
        api.sls_ntflush(b"a")
        fresh = AuroraApi(sls, proc)
        fresh.sls_ntflush(b"b")
        assert fresh._log is api._log

    def test_replay_without_log_is_empty(self, world, sls):
        proc, *_ = world
        assert AuroraApi(sls, proc).sls_log_replay() == []
        assert AuroraApi(sls, proc).sls_log_truncate(5) == 0


class TestEntriesCovering:
    def test_public_spelling(self, world):
        proc, _, entry, _, _ = world
        hits = proc.aspace.entries_covering(entry.start, entry.end)
        assert entry in hits

    def test_split_is_opt_in(self, world):
        proc, _, entry, _, _ = world
        before = len(proc.aspace.entries)
        proc.aspace.entries_covering(entry.start + 4096, entry.end)
        assert len(proc.aspace.entries) == before

    def test_mctl_uses_it(self, world):
        proc, _, entry, _, api = world
        affected = api.sls_mctl(entry.start, 8192, include=False)
        assert affected >= 1
        assert any(e.sls_exclude for e in proc.aspace.entries)


# -- the keyword-only convention, checked as signatures ---------------------------
#
# Every option on the public libsls/orchestrator/apps surface is one
# explicit keyword, so a misspelled knob fails loudly instead of being
# swallowed two layers down.  That shape erodes one convenient
# positional bool, options object or ``**kwargs`` bag at a time; these
# tests pin it by looking at the signatures themselves.

API_MODULES = (
    "repro.core.api",
    "repro.core.orchestrator",
    "repro.core.remote",
    "repro.core.restore",
    "repro.core.rollback",
    "repro.slsfs.snapshot",
)
API_PACKAGES = ("repro.apps",)


def public_functions(owner, prefix):
    """``(qualname, function)`` for every public function defined
    directly on ``owner`` (a module or a class): plain functions and
    methods, static/class methods, property getters, and — for a
    module — the same for each public class it defines.  Names with a
    leading underscore (dunders included) and imported names are not
    part of the surface."""
    in_module = inspect.ismodule(owner)
    for name, member in vars(owner).items():
        if name.startswith("_"):
            continue
        member = getattr(member, "__func__", member)   # static/classmethod
        member = getattr(member, "fget", member)       # property
        if in_module and getattr(member, "__module__", None) != owner.__name__:
            continue  # imported, not defined here
        if inspect.isfunction(member):
            yield f"{prefix}.{name}", member
        elif in_module and inspect.isclass(member):
            yield from public_functions(member, f"{prefix}.{name}")


def api_surface():
    names = list(API_MODULES)
    for package in API_PACKAGES:
        path = importlib.import_module(package).__path__
        names += sorted(f"{package}.{info.name}"
                        for info in pkgutil.iter_modules(path))
    for name in names:
        yield from public_functions(importlib.import_module(name), name)


def keyword_only_violations(surface):
    """What the convention forbids, one message per offending parameter."""
    out = []
    for qualname, func in surface:
        for param in inspect.signature(func).parameters.values():
            positional = param.kind in (param.POSITIONAL_ONLY,
                                        param.POSITIONAL_OR_KEYWORD)
            if param.name == "options" or param.name.endswith("_options"):
                out.append(f"{qualname}: {param.name!r} is a second "
                           "spelling of the keywords")
            elif positional and isinstance(param.default, bool):
                out.append(f"{qualname}: flag {param.name}={param.default} "
                           "must be keyword-only")
            elif param.kind is param.VAR_KEYWORD:
                out.append(f"{qualname}: **{param.name} swallows typos")
    return out


class PositionalOptions:
    def restore(self, image, options=None):
        """An options object a caller can pass by position."""


class KeywordOptions:
    def checkpoint(self, group, *, full=None, checkpoint_options=None):
        """Keyword-only, but still a second way to say ``full``."""


class PositionalFlag:
    def checkpoint(self, group, sync=True):
        """``checkpoint(group, True)`` is unreadable and un-greppable."""


class OptionBag:
    def invoke(self, name, **knobs):
        """A forwarded bag: ``invoke("f", lazzy=True)`` goes unnoticed."""


class LegacyBag:
    def deploy(self, name, **legacy_kwargs):
        """A deprecation shim's bag swallows typos all the same."""


class Conforming:
    def restore(self, image, *, lazy=False, new_instance=False):
        """Keyword-only knobs, one spelling each, are the convention."""


class TestKeywordOnlySurface:
    def test_public_api_is_keyword_only(self):
        surface = list(api_surface())
        # the count pins the scan's reach: an import that silently drops
        # a module, or a filter that skips methods, fails here
        assert len(surface) == 96
        assert keyword_only_violations(surface) == []

    @pytest.mark.parametrize("cls, message", [
        (PositionalOptions,
         "restore: 'options' is a second spelling of the keywords"),
        (KeywordOptions,
         "checkpoint: 'checkpoint_options' is a second spelling of the keywords"),
        (PositionalFlag, "checkpoint: flag sync=True must be keyword-only"),
        (OptionBag, "invoke: **knobs swallows typos"),
        (LegacyBag, "deploy: **legacy_kwargs swallows typos"),
    ])
    def test_each_violation_is_caught(self, cls, message):
        surface = list(api_surface()) + list(public_functions(cls, "t"))
        assert keyword_only_violations(surface) == [f"t.{message}"]

    def test_the_convention_itself_passes(self):
        assert keyword_only_violations(public_functions(Conforming, "t")) == []
