"""Each rule against its fixture corpus: the bad snippet must fail,
the good snippet must pass, with the exact findings pinned."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    AnalyzerConfig,
    Finding,
    ProjectTree,
    make_rules,
    run_rules,
)
from repro.analysis.cache import SummaryCache

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_fixture(name, rule, config=None):
    tree = ProjectTree.load(FIXTURES / name, config=config or AnalyzerConfig())
    return run_rules(tree, make_rules([rule]))


def by_path(report, path):
    return [f for f in report.findings if f.path == path]


# -- no-wallclock ---------------------------------------------------------------


def test_wallclock_bad_fixture_fails():
    report = run_fixture("wallclock", "no-wallclock")
    bad = by_path(report, "bad.py")
    messages = "\n".join(f.message for f in bad)
    assert "time.monotonic" in messages          # member import, at the import
    assert "time.time" in messages               # aliased module attribute
    assert "datetime.datetime.now" in messages   # datetime constructor
    assert "unseeded randomness random.random" in messages
    assert "alias 'now'" in messages             # assignment alias, at the call
    assert all(f.path == "bad.py" for f in report.findings)


def test_wallclock_good_fixture_passes():
    report = run_fixture("wallclock", "no-wallclock")
    assert by_path(report, "good.py") == []


# -- registry-drift -------------------------------------------------------------


def registry_config():
    return AnalyzerConfig(
        obs_registry={
            "SPAN_CHECKPOINT": "sls.checkpoint",
            "COUNTER_UNUSED": "objstore.unused_total",
            "COUNTER_RESERVED": "objstore.reserved_total",
            "GAUGE_RATIO": "demo.ratio_permille",
        },
        fault_registry={
            "FP_DEMO_WRITE": "demo.write",
            "FP_DEMO_DELTA": "demo.write_delta",
        },
    )


def test_registry_drift_bad_fixture_fails():
    report = run_fixture("registry", "registry-drift", registry_config())
    bad = by_path(report, "repro/store_bad.py")
    messages = "\n".join(f.message for f in bad)
    assert "inline instrument name 'sls.checkpoint'" in messages
    assert "duplicates a catalogue name" in messages
    # inline gauge + failpoint literals (the codec instrumentation
    # shapes): caught at the instrument call, not just as copies
    assert "inline instrument name 'demo.ratio_permille'" in messages
    assert "inline instrument name 'demo.write_delta'" in messages


def test_registry_drift_reports_unreferenced_constant():
    report = run_fixture("registry", "registry-drift", registry_config())
    unref = [f for f in report.findings if "never referenced" in f.message]
    assert [f.symbol for f in unref] == ["COUNTER_UNUSED"]


def test_registry_drift_inline_suppression():
    report = run_fixture("registry", "registry-drift", registry_config())
    assert [f.symbol for f in report.inline_suppressed] == ["COUNTER_RESERVED"]


def test_registry_drift_good_fixture_passes():
    report = run_fixture("registry", "registry-drift", registry_config())
    assert by_path(report, "repro/store_good.py") == []


# -- crash-ordering -------------------------------------------------------------


def test_crash_ordering_bad_fixture_fails():
    report = run_fixture("crash", "crash-ordering")
    bad = by_path(report, "repro/objstore/bad.py")
    assert sorted((f.symbol, f.message.split(";")[0]) for f in bad) == [
        ("ObjectStore._write_directory",
         "write_superblock() call site has no registered failpoint "
         "fired before it in this function"),
        ("ObjectStore.commit_snapshot",
         "write_superblock() called outside ObjectStore._write_directory()"),
        ("ObjectStore.compact",
         "raw device.write() bypasses the Volume layer"),
        ("ObjectStore.write_tail",
         "write_data() call site has no registered failpoint "
         "fired before it in this function"),
    ]


def test_crash_ordering_good_fixture_passes():
    report = run_fixture("crash", "crash-ordering")
    assert by_path(report, "repro/objstore/good.py") == []


def test_crash_ordering_adapter_is_exempt():
    # block.py's raw device write is covered by the device-level
    # failpoints inside StorageDevice, not store-level ones.
    report = run_fixture("crash", "crash-ordering")
    assert by_path(report, "repro/objstore/block.py") == []


# seeded mutations of the real tree: each must surface as crash-ordering

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
STORE_PY = "repro/objstore/store.py"

DIRECTORY_GATE = """\
        if self.faults is not None:
            self._failpoint(
                fault_names.FP_STORE_WRITE_DIRECTORY,
                "power cut before directory write",
                "injected directory-write failure",
                store=self.device.name, snapshots=len(self.directory.snapshots),
            )
"""
TAIL_WRITE = "        self.volume.write_data(extent.offset, record)\n"
COMMITTED = "        self.stats.snapshots_committed += 1\n"

#: name -> ([(old, new)] edits of store.py, [(path, symbol, message part)]
#: expected crash-ordering findings).  Dropping the barrier or moving a
#: caller's flush is no longer here: Volume.write_superblock has no
#: barrier parameter to drop and _write_directory flushes for itself
#: (tests/objstore/test_write_path.py pins both behaviours).
MUTATIONS = {
    "drop-directory-gate": (
        [(DIRECTORY_GATE, "")],
        [(STORE_PY, "ObjectStore._write_directory",
          "write_superblock() call site has no registered failpoint")],
    ),
    "raw-device-write": (
        [(TAIL_WRITE,
          "        self.device.write_async(extent.offset, record)\n")],
        [(STORE_PY, "ObjectStore._write_record",
          "raw device.write_async() bypasses the Volume layer")],
    ),
    "second-superblock-site": (
        [(COMMITTED,
          '        self.volume.write_superblock(b"")\n' + COMMITTED)],
        [(STORE_PY, "ObjectStore.commit_snapshot",
          "called outside ObjectStore._write_directory()")],
    ),
}


@pytest.fixture(scope="module")
def real_tree_copy(tmp_path_factory):
    """The real ``src/repro`` copied once, plus a shared in-memory
    summary cache so each mutation re-extracts only ``store.py``."""
    root = tmp_path_factory.mktemp("mutated")
    shutil.copytree(SRC_REPRO, root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root, SummaryCache(), AnalyzerConfig.default()


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_crash_ordering_catches_seeded_mutation(real_tree_copy, mutation):
    root, cache, config = real_tree_copy
    edits, expected = MUTATIONS[mutation]
    target = root / STORE_PY
    pristine = target.read_text()
    mutated = pristine
    for old, new in edits:
        assert old in mutated, f"{mutation}: anchor drifted: {old!r}"
        mutated = mutated.replace(old, new)
    try:
        target.write_text(mutated)
        tree = ProjectTree.load(root, config=config, cache=cache)
        report = run_rules(tree, make_rules(["crash-ordering"]))
    finally:
        target.write_text(pristine)
    got = [(f.path, f.symbol, f.message) for f in report.findings]
    for path, symbol, part in set(expected):
        matching = [g for g in got
                    if g[:2] == (path, symbol) and part in g[2]]
        assert len(matching) == expected.count((path, symbol, part)), got
    assert all(f.rule == "crash-ordering" for f in report.findings)


# -- unit-suffix ----------------------------------------------------------------


def test_unit_suffix_bad_fixture_fails():
    report = run_fixture("units", "unit-suffix")
    bad = by_path(report, "bad.py")
    messages = "\n".join(f.message for f in bad)
    assert "magic literal 30000" in messages
    assert "magic literal 4096" in messages   # folded from 4 * 1024
    assert "assigned directly from size name 'chunk_bytes'" in messages
    assert len(bad) == 3


def test_unit_suffix_good_fixture_passes():
    # units products, identity literals, and calibration floats pass
    report = run_fixture("units", "unit-suffix")
    assert by_path(report, "good.py") == []


# -- engine ----------------------------------------------------------------------


def test_fingerprint_ignores_line_numbers():
    a = Finding(rule="r", path="p.py", line=3, col=0, message="m", symbol="f")
    b = Finding(rule="r", path="p.py", line=99, col=4, message="m", symbol="f")
    assert a.fingerprint == b.fingerprint
    c = Finding(rule="r", path="p.py", line=3, col=0, message="m2", symbol="f")
    assert a.fingerprint != c.fingerprint


def test_unknown_rule_name_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        make_rules(["no-such-rule"])


# -- the effects fixture (shared by the four whole-program rules) ----------------


def effects_config():
    return AnalyzerConfig(
        obs_registry={
            "C_OPS": "fx.ops_total",
            "C_NEVER": "fx.never_total",
            "G_DEAD": "fx.dead_ratio",
            "H_UNDOC": "fx.undoc_ns",
        },
        fault_registry={
            "FP_COMMIT": "fx.commit",
            "FP_DEAD": "fx.dead",
            "FP_ORPHAN": "fx.orphan",
            "FP_OFF_SWEEP": "fx.off_sweep",
        },
        durability_roots=(
            "Store.commit",
            "Store.commit_media_first",
            "Store.commit_after_super",
            "Store.gone",
        ),
        sweep_entry="repro/sweep.py::run_sweep",
        sweep_sites=("fx.commit", "fx.off_sweep"),
    )


def run_effects_fixture(rule):
    return run_fixture("effects", rule, effects_config())


# -- durability-order -----------------------------------------------------------


def test_durability_good_root_passes():
    report = run_effects_fixture("durability-order")
    assert [f for f in report.findings if f.symbol == "Store.commit"] == []


def test_durability_media_before_fire_fails():
    report = run_effects_fixture("durability-order")
    [finding] = [f for f in report.findings
                 if f.symbol == "Store.commit_media_first"]
    assert "before any failpoint fires" in finding.message
    assert finding.path == "repro/store.py"


def test_durability_media_after_superblock_fails():
    report = run_effects_fixture("durability-order")
    [finding] = [f for f in report.findings
                 if f.symbol == "Store.commit_after_super"]
    assert "after the last SUPERBLOCK_WRITE" in finding.message


def test_durability_missing_root_is_a_finding():
    # renaming a configured root away must not silently disable it
    report = run_effects_fixture("durability-order")
    [finding] = [f for f in report.findings if f.symbol == "Store.gone"]
    assert finding.path == "<config>"
    assert "matches no function" in finding.message
    assert len(report.findings) == 3


# -- failpoint-reachability -----------------------------------------------------


def test_failpoint_live_swept_constant_passes():
    report = run_effects_fixture("failpoint-reachability")
    assert [f for f in report.findings if f.symbol == "FP_COMMIT"] == []


def test_failpoint_never_fired_fails():
    report = run_effects_fixture("failpoint-reachability")
    [finding] = [f for f in report.findings if f.symbol == "FP_DEAD"]
    assert "never fired" in finding.message
    assert finding.path == "repro/fault/names.py"
    assert finding.line > 0  # anchored at the constant definition


def test_failpoint_dead_code_fire_fails():
    report = run_effects_fixture("failpoint-reachability")
    [finding] = [f for f in report.findings if f.symbol == "FP_ORPHAN"]
    assert "unreachable from any public entry point" in finding.message


def test_failpoint_swept_but_off_sweep_fails():
    # fired from a live public method, but the sweep never gets there
    report = run_effects_fixture("failpoint-reachability")
    [finding] = [f for f in report.findings if f.symbol == "FP_OFF_SWEEP"]
    assert "no fire site reachable from repro/sweep.py::run_sweep" in (
        finding.message
    )
    assert len(report.findings) == 3


# -- obs-coverage ---------------------------------------------------------------


def test_obs_emitted_documented_metric_passes():
    report = run_effects_fixture("obs-coverage")
    assert [f for f in report.findings if f.symbol == "C_OPS"] == []


def test_obs_never_emitted_fails():
    report = run_effects_fixture("obs-coverage")
    [finding] = [f for f in report.findings if f.symbol == "C_NEVER"]
    assert "never emitted" in finding.message
    assert finding.path == "repro/obs/names.py"


def test_obs_dead_code_emit_fails():
    report = run_effects_fixture("obs-coverage")
    [finding] = [f for f in report.findings if f.symbol == "G_DEAD"]
    assert "unreachable from any public entry point" in finding.message


def test_obs_undocumented_metric_fails():
    report = run_effects_fixture("obs-coverage")
    [finding] = [f for f in report.findings if f.symbol == "H_UNDOC"]
    assert "not documented in OBSERVABILITY.md" in finding.message
    assert len(report.findings) == 3


# -- exception-safety -----------------------------------------------------------


def test_exception_safety_broad_swallow_of_callee_cut_fails():
    # the fire is two calls deep: proves the interprocedural summary
    report = run_effects_fixture("exception-safety")
    [finding] = [f for f in report.findings
                 if f.symbol == "Worker.bad_swallow"]
    assert "except Exception can swallow a PowerCut" in finding.message


def test_exception_safety_bare_except_fails():
    report = run_effects_fixture("exception-safety")
    [finding] = [f for f in report.findings if f.symbol == "Worker.bad_bare"]
    assert "bare except" in finding.message
    assert len(report.findings) == 2


def test_exception_safety_good_shapes_pass():
    # explicit PowerCut arm, re-raising handler, cut-free body
    report = run_effects_fixture("exception-safety")
    good = {"Worker.good_explicit", "Worker.good_reraise",
            "Worker.good_no_cut"}
    assert [f for f in report.findings if f.symbol in good] == []


def test_whole_program_rules_stay_quiet_off_repo_trees():
    # a tree without the catalogue modules is not this repo: the
    # whole-program promises are vacuous there, not violated
    for rule in ("durability-order", "failpoint-reachability",
                 "obs-coverage"):
        report = run_fixture("wallclock", rule, effects_config())
        assert report.findings == []
