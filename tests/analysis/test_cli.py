"""``sls lint`` end to end: exit codes, the JSON document, the
summary cache, and the shipped tree staying clean."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.analysis.cli import _find_default_root, add_lint_parser, lint_tree
from repro.cli.main import main

REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

BAD_WALLCLOCK = "import time\n\n\ndef stamp():\n    return time.time()\n"


# -- the shipped tree ------------------------------------------------------------


def test_shipped_tree_is_clean():
    report = lint_tree(SRC)
    assert report.clean, "\n".join(f.render() for f in report.findings)
    assert len(report.rules_run) == 7


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
             "obs-coverage")
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
    assert main(["lint", str(tree), "--json", str(out_path)]) == 1
    # stdout stays the human report; the document goes to the file
    assert "bad.py:5:11: no-wallclock:" in capsys.readouterr().out
    document = json.loads(out_path.read_text())
    assert document["clean"] is False
    assert document["modules_scanned"] == 1
    [finding] = document["findings"]
    assert finding["rule"] == "no-wallclock"
    assert finding["symbol"] == "stamp"


def test_json_document_shape_is_pinned(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    out_path = tmp_path / "report.json"
    assert main(["lint", str(tree), "--json", str(out_path)]) == 1
    document = json.loads(out_path.read_text())
    assert set(document) == {"rules", "modules_scanned", "findings", "clean"}
    [finding] = document["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message",
                            "symbol"}


def test_a_waiver_marker_is_just_a_comment(tmp_path, capsys):
    # there is no suppression layer: a finding is fixed, not waived
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK.replace(
        "time.time()", "time.time()  # sls-lint: ok[no-wallclock] legacy"))
    assert main(["lint", str(tree)]) == 1
    assert "1 finding(s)" in capsys.readouterr().out


def test_rule_selection_scopes_the_run(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    assert main(["lint", str(tree), "--rule", "unit-suffix"]) == 0
    assert main(["lint", str(tree), "--rule", "no-wallclock"]) == 1


def test_clean_tree_exits_zero_with_a_clean_json_report(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "ok.py").write_text("def add(a, b):\n    return a + b\n")
    out_path = tmp_path / "report.json"
    assert main(["lint", str(tree), "--json", str(out_path)]) == 0
    assert "tree is clean" in capsys.readouterr().out
    document = json.loads(out_path.read_text())
    assert document["clean"] is True
    assert document["findings"] == []
    assert len(document["rules"]) == 7


def test_lint_cli_has_six_options():
    subparsers = argparse.ArgumentParser().add_subparsers(dest="mode")
    add_lint_parser(subparsers)
    lint = subparsers.choices["lint"]
    settable = [action.dest for action in lint._actions
                if not isinstance(action, argparse._HelpAction)]
    assert settable == ["root", "rules", "list_rules", "json", "graph",
                        "no_cache"]


@pytest.mark.parametrize("argv", [
    pytest.param(["--baseline", "waivers.json"], id="baseline"),
    pytest.param(["--no-baseline"], id="no-baseline"),
    pytest.param(["--update-baseline"], id="update-baseline"),
    pytest.param(["--changed"], id="changed"),
    pytest.param(["--format", "json"], id="format"),
])
def test_waiver_and_filter_options_are_usage_errors(tmp_path, capsys, argv):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(tree), *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- fixtures are data, not code -------------------------------------------------


def test_fixture_corpora_are_never_imported():
    # the bad fixtures contain wall-clock reads, bare excepts, and
    # worse; the analyzer must only ever *parse* them
    import subprocess
    import sys

    lint_fixtures = (
        "import sys\n"
        "from repro.cli.main import main\n"
        f"main(['lint', {str(FIXTURES)!r}, '--no-cache'])\n"
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

    assert main(["lint", str(tree)]) == 1
    cold = capsys.readouterr().out
    assert cache_path.exists()
    # one extractor feeds every graph rule: crash-ordering has no facts
    # namespace of its own any more
    kinds = {key.split(":")[0]
             for entry in json.loads(cache_path.read_text())["modules"].values()
             for key in entry["facts"]}
    assert "effects" in kinds and "crash-ordering" not in kinds

    assert main(["lint", str(tree)]) == 1
    warm = capsys.readouterr().out
    assert warm == cold  # byte-identical report off the warm cache


def test_cache_of_an_src_tree_lives_at_the_repo_root(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "bad.py").write_text(BAD_WALLCLOCK)
    assert main(["lint", str(src)]) == 1
    assert (tmp_path / ".sls-lint-cache.json").exists()
    assert not (src / ".sls-lint-cache.json").exists()


def test_no_cache_leaves_no_file(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_WALLCLOCK)
    assert main(["lint", str(tree), "--no-cache"]) == 1
    assert not (tree / ".sls-lint-cache.json").exists()


# -- --graph ---------------------------------------------------------------------


def test_graph_json_from_the_cli(capsys):
    assert main(["lint", str(SRC), "--graph", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == 2
    assert any(
        node["qual"] == "SLS.checkpoint" and node["effects"]
        for node in document["nodes"]
    )


def test_graph_dot_from_the_cli(capsys):
    assert main(["lint", str(SRC), "--graph", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph sls_effects {")
    assert out.rstrip().endswith("}")
