"""``sls lint`` — run the invariant checker (see ANALYSIS.md).

Exit codes: 0 clean, 1 findings, 2 usage errors.  ``--json PATH``
writes one machine-readable document to a file alongside the human
output, matching the house style of ``sls bench``/``sls crashtest``.

Runs are incremental by default: per-module facts (findings, effect
summaries) live in ``.sls-lint-cache.json`` at the repo root, keyed by
content hash, so a warm run re-extracts only edited modules
(``--no-cache`` opts out).  ``--graph dot|json`` dumps the
whole-program effect call graph instead of linting.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.cache import DEFAULT_CACHE_NAME, SummaryCache
from repro.analysis.core import ProjectTree, Report, run_rules
from repro.analysis.rules import ALL_RULES, make_rules


def _find_default_root() -> Path:
    """``src/`` next to the installed package (editable installs), or
    the current directory's ``src`` as a fallback."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if parent.name == "src":
            return parent
    return Path("src")


def lint_tree(root: Path, rule_names: Optional[List[str]] = None) -> Report:
    """Library entry point: lint every ``*.py`` under ``root``, uncached.

    The tests call it (``tests/test_no_wallclock.py``, the shipped-tree
    check); it runs the same ``run_rules`` as ``sls lint``, so the two
    can never disagree about what the rules see.
    """
    tree = ProjectTree.load(Path(root))
    return run_rules(tree, make_rules(rule_names))


def _report_json(report: Report) -> dict:
    return {
        "rules": report.rules_run,
        "modules_scanned": report.modules_scanned,
        "findings": [f.to_json() for f in report.findings],
        "clean": report.clean,
    }


def add_lint_parser(subparsers) -> None:
    """Register the ``lint`` subcommand on the ``sls`` CLI."""
    lint = subparsers.add_parser(
        "lint",
        help="statically check the tree's determinism/crash/API invariants",
    )
    lint.add_argument("root", nargs="?", default=None,
                      help="tree to lint (default: the installed src/ tree)")
    lint.add_argument("--rule", action="append", dest="rules", default=None,
                      metavar="NAME",
                      help="run only this rule (repeatable)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--json", metavar="PATH", default=None,
                      help="also write the JSON report to PATH")
    lint.add_argument("--graph", choices=("dot", "json"), default=None,
                      help="dump the whole-program effect call graph "
                           "in this format instead of linting")
    lint.add_argument("--no-cache", action="store_true",
                      help="ignore and do not write the per-module "
                           f"summary cache ({DEFAULT_CACHE_NAME})")


def cmd_lint(args) -> int:
    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.name:<16} {cls.summary}")
        return 0

    root = Path(args.root) if args.root else _find_default_root()
    if not root.exists():
        print(f"sls lint: no such tree: {root}", file=sys.stderr)
        return 2
    try:
        rules = make_rules(args.rules)
    except ValueError as exc:
        print(f"sls lint: {exc}", file=sys.stderr)
        return 2

    cache = None if args.no_cache else SummaryCache.load(_cache_path(root))
    tree = ProjectTree.load(root, cache=cache)

    if args.graph:
        analysis = tree.effects()
        if args.graph == "dot":
            print(analysis.to_dot(), end="")
        else:
            print(json.dumps(analysis.to_json(), indent=2, sort_keys=True))
        if cache is not None:
            cache.save()
        return 0

    report = run_rules(tree, rules)
    if cache is not None:
        cache.save()

    if args.json:
        Path(args.json).write_text(
            json.dumps(_report_json(report), indent=2, sort_keys=True) + "\n"
        )
    _print_human(report)
    return 0 if report.clean else 1


def _cache_path(root: Path) -> Path:
    """The cache lives at the repo root: next to ``src`` when linting
    an ``src`` tree, else inside the linted tree."""
    root = Path(root).resolve()
    return (root.parent if root.name == "src" else root) / DEFAULT_CACHE_NAME


def _print_human(report: Report) -> None:
    for finding in report.findings:
        print(finding.render())
    print(
        f"sls lint: {len(report.findings)} finding(s) over "
        f"{report.modules_scanned} modules "
        f"({', '.join(report.rules_run)})"
    )
    if report.clean:
        print("tree is clean")
