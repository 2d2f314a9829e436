"""``repro.analysis`` — the AST-based invariant checker behind
``sls lint``: seven rules for invariants the runtime checks only when
the right test happens to exercise them.  Four are per-module: no
wall-clock reads, instrument names from the catalogues (registry
drift), one superblock call site and no raw device write in the store
(crash ordering), and honest ``_ns``/``_bytes`` suffixes.  Three are
proved on the whole-program effect call graph: durability order,
failpoint reachability, and obs coverage.
See ANALYSIS.md for the catalogue and ``repro.analysis.rules`` for
how to add a rule.
"""

from repro.analysis.core import (
    AnalyzerConfig,
    Finding,
    ProjectTree,
    Report,
    Rule,
    run_rules,
)
from repro.analysis.rules import ALL_RULES, make_rules

__all__ = [
    "ALL_RULES",
    "AnalyzerConfig",
    "Finding",
    "ProjectTree",
    "Report",
    "Rule",
    "make_rules",
    "run_rules",
]
