"""``sls lint`` end to end: exit codes, JSON output, the baseline
workflow, and the shipped tree staying clean modulo the baseline."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import Baseline
from repro.analysis.baseline import TODO_JUSTIFICATION
from repro.analysis.cli import _find_default_root, lint_tree
from repro.cli.main import main

REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

BAD_WALLCLOCK = "import time\n\n\ndef stamp():\n    return time.time()\n"
GOOD_WALLCLOCK = "def stamp(clock):\n    return clock.now()\n"


# -- the shipped tree ------------------------------------------------------------


def test_shipped_tree_is_clean_modulo_baseline():
    baseline = Baseline.load(REPO / ".sls-lint-baseline.json")
    report = lint_tree(SRC, None, baseline)
    assert report.clean, "\n".join(f.render() for f in report.findings)
    assert report.stale_baseline == []
    assert len(report.rules_run) == 8


def test_cli_over_shipped_tree_exits_zero(capsys):
    assert main(["lint", str(SRC)]) == 0
    assert "tree is clean" in capsys.readouterr().out


def test_default_root_is_the_installed_src_tree():
    assert _find_default_root() == SRC


# -- flags and exit codes --------------------------------------------------------


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    rules = ("no-wallclock", "registry-drift", "crash-ordering",
             "unit-suffix", "durability-order", "failpoint-reachability",
             "obs-coverage", "exception-safety")
    assert [line.split()[0] for line in out.splitlines()] == list(rules)


def test_unknown_rule_is_usage_error(capsys):
    assert main(["lint", str(SRC), "--rule", "no-such-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_root_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nowhere")]) == 2
    assert "no such tree" in capsys.readouterr().err


def test_findings_exit_one_and_json_report(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    out_path = tmp_path / "report.json"
    code = main(["lint", str(tree), "--format", "json",
                 "--json", str(out_path)])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document == json.loads(out_path.read_text())
    assert document["clean"] is False
    assert document["modules_scanned"] == 1
    [finding] = document["findings"]
    assert finding["rule"] == "no-wallclock"
    assert finding["symbol"] == "stamp"


def test_rule_selection_scopes_the_run(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    assert main(["lint", str(tree), "--rule", "unit-suffix"]) == 0
    assert main(["lint", str(tree), "--rule", "no-wallclock"]) == 1


# -- the baseline workflow -------------------------------------------------------


def test_baseline_absorb_waive_and_go_stale(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    baseline_path = tree / ".sls-lint-baseline.json"

    # 1. absorb the finding; new entries get the TODO justification
    assert main(["lint", str(tree), "--update-baseline"]) == 0
    entries = json.loads(baseline_path.read_text())["entries"]
    assert [e["justification"] for e in entries] == [TODO_JUSTIFICATION]

    # 2. with the baseline in place the same tree lints clean
    capsys.readouterr()
    assert main(["lint", str(tree)]) == 0
    assert "1 baselined" in capsys.readouterr().out

    # 3. ...but only through the baseline, never silently
    assert main(["lint", str(tree), "--no-baseline"]) == 1

    # 4. fixing the code makes the entry stale, which blocks again
    (tree / "bad.py").write_text(GOOD_WALLCLOCK)
    capsys.readouterr()
    assert main(["lint", str(tree)]) == 1
    assert "stale baseline entry" in capsys.readouterr().out

    # 5. --update-baseline garbage-collects the stale entry
    assert main(["lint", str(tree), "--update-baseline"]) == 0
    assert json.loads(baseline_path.read_text())["entries"] == []
    assert main(["lint", str(tree)]) == 0


# -- usage errors ----------------------------------------------------------------


def test_malformed_baseline_is_usage_error(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "ok.py").write_text(GOOD_WALLCLOCK)
    (tree / ".sls-lint-baseline.json").write_text("{not json")
    assert main(["lint", str(tree)]) == 2
    assert "malformed baseline" in capsys.readouterr().err


def test_baseline_missing_fingerprint_is_usage_error(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "ok.py").write_text(GOOD_WALLCLOCK)
    (tree / ".sls-lint-baseline.json").write_text(
        json.dumps({"entries": [{"rule": "no-wallclock"}]})
    )
    assert main(["lint", str(tree)]) == 2
    assert "malformed baseline" in capsys.readouterr().err


def test_changed_outside_git_is_usage_error(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "ok.py").write_text(GOOD_WALLCLOCK)
    assert main(["lint", str(tree), "--changed"]) == 2
    assert "merge base" in capsys.readouterr().err


# -- fixtures are data, not code -------------------------------------------------


def test_fixture_corpora_are_never_imported():
    # the bad fixtures contain wall-clock reads, bare excepts, and
    # worse; the analyzer must only ever *parse* them
    import subprocess
    import sys

    lint_fixtures = (
        "import sys\n"
        "from repro.cli.main import main\n"
        f"main(['lint', {str(FIXTURES)!r}, '--no-baseline', '--no-cache'])\n"
        "bad = [name for name, mod in sys.modules.items()\n"
        "       if 'fixtures' in (getattr(mod, '__file__', '') or '')]\n"
        "print('IMPORTED:' + ','.join(bad))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", lint_fixtures],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert done.returncode == 0, done.stderr
    assert "IMPORTED:\n" in done.stdout


# -- the summary cache at the CLI ------------------------------------------------


def test_cache_file_appears_and_warm_run_agrees(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    cache_path = tree / ".sls-lint-cache.json"

    assert main(["lint", str(tree), "--no-baseline"]) == 1
    cold = capsys.readouterr().out
    assert cache_path.exists()
    # one extractor feeds every graph rule: crash-ordering has no facts
    # namespace of its own any more
    kinds = {key.split(":")[0]
             for entry in json.loads(cache_path.read_text())["modules"].values()
             for key in entry["facts"]}
    assert "effects" in kinds and "crash-ordering" not in kinds

    assert main(["lint", str(tree), "--no-baseline"]) == 1
    warm = capsys.readouterr().out
    assert warm == cold  # byte-identical report off the warm cache


def test_no_cache_leaves_no_file(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    assert main(["lint", str(tree), "--no-baseline", "--no-cache"]) == 1
    assert not (tree / ".sls-lint-cache.json").exists()


# -- --changed -------------------------------------------------------------------


def _git(tree, *argv):
    import subprocess

    subprocess.run(
        ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
         *argv],
        cwd=tree, check=True, capture_output=True,
    )


def test_changed_reports_only_the_diffed_files(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "old.py").write_text(BAD_WALLCLOCK)
    _git(tree, "init", "-b", "main")
    _git(tree, "add", ".")
    _git(tree, "commit", "-m", "seed")
    (tree / "new.py").write_text(BAD_WALLCLOCK)

    # full run sees both files...
    code = main(["lint", str(tree), "--no-baseline", "--format", "json"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert {f["path"] for f in document["findings"]} == {"old.py", "new.py"}

    # ...--changed reports only the untracked newcomer
    code = main(["lint", str(tree), "--no-baseline", "--changed",
                 "--format", "json"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert {f["path"] for f in document["findings"]} == {"new.py"}


def test_changed_clean_when_diff_is_clean(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "old.py").write_text(BAD_WALLCLOCK)
    _git(tree, "init", "-b", "main")
    _git(tree, "add", ".")
    _git(tree, "commit", "-m", "seed")
    (tree / "new.py").write_text(GOOD_WALLCLOCK)

    assert main(["lint", str(tree), "--no-baseline", "--changed"]) == 0
    assert "tree is clean" in capsys.readouterr().out


# -- --update-baseline pruning ---------------------------------------------------


def test_update_baseline_reports_pruned_fingerprints(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    baseline_path = tree / ".sls-lint-baseline.json"

    assert main(["lint", str(tree), "--update-baseline"]) == 0
    [entry] = json.loads(baseline_path.read_text())["entries"]
    capsys.readouterr()

    (tree / "bad.py").write_text(GOOD_WALLCLOCK)
    assert main(["lint", str(tree), "--update-baseline"]) == 0
    out = capsys.readouterr().out
    assert f"pruned stale entry {entry['fingerprint']}" in out
    assert json.loads(baseline_path.read_text())["entries"] == []


def test_update_baseline_prunes_only_rules_that_ran(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    baseline_path = tree / ".sls-lint-baseline.json"

    assert main(["lint", str(tree), "--update-baseline"]) == 0
    [entry] = json.loads(baseline_path.read_text())["entries"]
    assert entry["rule"] == "no-wallclock"

    # a rule-scoped refresh must not GC the other rules' entries
    assert main(["lint", str(tree), "--update-baseline",
                 "--rule", "unit-suffix"]) == 0
    [kept] = json.loads(baseline_path.read_text())["entries"]
    assert kept["fingerprint"] == entry["fingerprint"]


# -- --graph ---------------------------------------------------------------------


def test_graph_json_from_the_cli(capsys):
    assert main(["lint", str(SRC), "--graph", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == 1
    assert any(
        node["qual"] == "SLS.checkpoint" and node["effects"]
        for node in document["nodes"]
    )


def test_graph_dot_from_the_cli(capsys):
    assert main(["lint", str(SRC), "--graph", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph sls_effects {")
    assert out.rstrip().endswith("}")
