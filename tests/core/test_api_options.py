"""The Table 2 surface: explicit keywords or one options object.

``sls_checkpoint``/``sls_restore`` take explicit keyword-only
parameters (or one ``CheckpointOptions``/``RestoreOptions`` value).
The historical positional and ``backend_name=`` shapes are gone: they
fail as any other wrong call does, with ``TypeError``.
"""

import importlib
import inspect
import pkgutil

import pytest

from repro.core.api import AuroraApi
from repro.core.backends import MemoryBackend, make_disk_backend
from repro.core.options import CheckpointOptions, RestoreOptions
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


class TestOptionObjects:
    def test_checkpoint_defaults(self):
        opts = CheckpointOptions()
        assert (opts.full, opts.name, opts.sync) == (None, None, False)

    def test_checkpoint_validates_types(self):
        with pytest.raises(SlsError):
            CheckpointOptions(full="yes")
        with pytest.raises(SlsError):
            CheckpointOptions(name=7)
        with pytest.raises(SlsError):
            CheckpointOptions(sync=None)

    def test_restore_defaults(self):
        opts = RestoreOptions()
        assert opts.backend is None and not opts.lazy
        assert not opts.new_instance and opts.prefetch is None

    def test_restore_validates_types(self):
        with pytest.raises(SlsError):
            RestoreOptions(backend=3)
        with pytest.raises(SlsError):
            RestoreOptions(lazy="maybe")

    def test_name_suffix_requires_new_instance(self):
        with pytest.raises(SlsError):
            RestoreOptions(name_suffix="-clone")
        RestoreOptions(name_suffix="-clone", new_instance=True)

    def test_options_are_frozen(self):
        opts = RestoreOptions()
        with pytest.raises(AttributeError):
            opts.lazy = True

    def test_engine_kwargs_spelling(self):
        opts = RestoreOptions(backend="memory", lazy=True)
        kw = opts.engine_kwargs()
        assert kw["backend_name"] == "memory" and kw["lazy"] is True


class TestCheckpointApi:
    def test_keyword_form(self, world):
        *_, api = world
        image = api.sls_checkpoint(name="manual", full=True)
        assert image.name == "manual"

    def test_options_form(self, world):
        *_, api = world
        image = api.sls_checkpoint(options=CheckpointOptions(name="opt"))
        assert image.name == "opt"

    def test_options_and_keywords_conflict(self, world):
        *_, api = world
        with pytest.raises(SlsError):
            api.sls_checkpoint(name="x", options=CheckpointOptions())

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

    def test_options_form(self, world):
        *_, api = world
        api.sls_checkpoint(name="base")
        procs, _ = api.sls_restore(
            options=RestoreOptions(new_instance=True, lazy=True)
        )
        assert procs

    def test_options_and_keywords_conflict(self, world):
        *_, api = world
        api.sls_checkpoint()
        with pytest.raises(SlsError):
            api.sls_restore(lazy=True, options=RestoreOptions())

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
        with pytest.raises(TypeError, match="backend_name"):
            api.sls_restore(backend_name="memory", new_instance=True)
        procs, _ = api.sls_restore(backend="memory", new_instance=True)
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
# Every option on the public libsls/orchestrator/apps surface is an
# explicit keyword (or one options object), so a misspelled knob fails
# loudly instead of being swallowed two layers down.  That shape erodes
# one convenient positional bool at a time; these tests pin it by
# looking at the signatures themselves.

API_MODULES = ("repro.core.api", "repro.core.orchestrator")
API_PACKAGES = ("repro.apps",)
#: the one public ``**kwargs`` that is not a ``legacy*`` deprecation
#: shim: its whole body forwards ``*args, **kwargs`` to
#: ``RestoreEngine.restore``, whose own signature rejects a typo
PURE_DELEGATES = {"repro.core.orchestrator.SLS.restore"}


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
            if positional and (param.name == "options"
                               or param.name.endswith("_options")):
                out.append(f"{qualname}: {param.name!r} must be keyword-only")
            elif positional and isinstance(param.default, bool):
                out.append(f"{qualname}: flag {param.name}={param.default} "
                           "must be keyword-only")
            elif (param.kind is param.VAR_KEYWORD
                    and not param.name.startswith("legacy")
                    and qualname not in PURE_DELEGATES):
                out.append(f"{qualname}: **{param.name} swallows typos")
    return out


class PositionalOptions:
    def restore(self, image, options=None):
        """An options object a caller can pass by position."""


class PositionalFlag:
    def checkpoint(self, group, sync=True):
        """``checkpoint(group, True)`` is unreadable and un-greppable."""


class OptionBag:
    def invoke(self, name, **knobs):
        """A forwarded bag: ``invoke("f", lazzy=True)`` goes unnoticed."""


class Conforming:
    def restore(self, image, *, options=None, lazy=False, **legacy_kwargs):
        """Keyword-only knobs and a ``legacy*`` shim are the convention."""


class TestKeywordOnlySurface:
    def test_public_api_is_keyword_only(self):
        surface = list(api_surface())
        # the count pins the scan's reach: an import that silently drops
        # a module, or a filter that skips methods, fails here
        assert len(surface) == 84
        assert PURE_DELEGATES <= {qualname for qualname, _ in surface}
        assert keyword_only_violations(surface) == []

    @pytest.mark.parametrize("cls, message", [
        (PositionalOptions, "restore: 'options' must be keyword-only"),
        (PositionalFlag, "checkpoint: flag sync=True must be keyword-only"),
        (OptionBag, "invoke: **knobs swallows typos"),
    ])
    def test_each_violation_is_caught(self, cls, message):
        surface = list(api_surface()) + list(public_functions(cls, "t"))
        assert keyword_only_violations(surface) == [f"t.{message}"]

    def test_the_convention_itself_passes(self):
        assert keyword_only_violations(public_functions(Conforming, "t")) == []
