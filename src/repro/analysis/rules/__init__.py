"""The shipped rule set (one module per rule; see ANALYSIS.md).

Adding a rule: write a module with a :class:`~repro.analysis.core.Rule`
subclass, register it in :data:`ALL_RULES`, document it in ANALYSIS.md,
and give it good/bad fixtures under ``tests/analysis/fixtures/``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.core import Rule
from repro.analysis.rules.crash_ordering import CrashOrderingRule
from repro.analysis.rules.durability_order import DurabilityOrderRule
from repro.analysis.rules.failpoint_reach import FailpointReachRule
from repro.analysis.rules.obs_coverage import ObsCoverageRule
from repro.analysis.rules.registry_drift import RegistryDriftRule
from repro.analysis.rules.unit_suffix import UnitSuffixRule
from repro.analysis.rules.wallclock import WallClockRule

ALL_RULES = (
    WallClockRule,
    RegistryDriftRule,
    CrashOrderingRule,
    UnitSuffixRule,
    DurabilityOrderRule,
    FailpointReachRule,
    ObsCoverageRule,
)


def make_rules(names: List[str] = None) -> List[Rule]:
    """Instantiate the selected rules (all of them by default)."""
    by_name: Dict[str, type] = {cls.name: cls for cls in ALL_RULES}
    if names is None:
        return [cls() for cls in ALL_RULES]
    unknown = sorted(set(names) - set(by_name))
    if unknown:
        known = ", ".join(sorted(by_name))
        raise ValueError(f"unknown rule(s) {unknown}; known rules: {known}")
    return [by_name[name]() for name in names]
