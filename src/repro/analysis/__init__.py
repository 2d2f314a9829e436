"""``repro.analysis`` — the AST-based invariant checker behind
``sls lint``: eight rules for invariants the runtime checks only when
the right test happens to exercise them.  Four are per-module: no
wall-clock reads, instrument names from the catalogues (registry
drift), one superblock call site with failpoints before every raw
store write (crash ordering), and honest ``_ns``/``_bytes`` suffixes.
Four are proved on the whole-program effect call graph: durability
order, failpoint reachability, obs coverage, and exception safety.
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
