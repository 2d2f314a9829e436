"""``failpoint-reachability``: every catalogued failpoint is live.

A failpoint constant in :mod:`repro.fault.names` is a *promise* that
the crash sweep can cut power at that boundary.  The promise breaks
three ways, each invisible to the sweep itself (which only counts the
points it actually hits):

1. **never fired** — the constant exists but no code fires it: a
   documented crash point that cannot crash.
2. **not sweep-reachable** — the constant is one of the swept sites
   (:attr:`AnalyzerConfig.sweep_sites`) but none of its fire sites is
   reachable from the sweep entry
   (:attr:`AnalyzerConfig.sweep_entry`): the sweep would silently
   sweep past it (the ``EXPECTED_CRASH_POINTS`` pin catches the count
   collapsing, this catches *which* site went dead and says so before
   the sweep runs).
3. **fired only in dead code** — every fire site sits in a function
   unreachable from any public entry point, so no real workload can
   ever reach the boundary.

Findings anchor at the constant's definition in the fault catalogue —
that is the line someone will delete or re-wire.

Non-swept constants (e.g. ``FP_REMOTE_SEND``, exercised by targeted
tests rather than the sweep) only need a live fire site on a public
path; forcing every constant into the sweep would just bloat the
154-point pin without adding coverage.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import Finding, ProjectTree, Rule


class FailpointReachRule(Rule):
    name = "failpoint-reachability"
    summary = (
        "every fault-catalogue constant is fired on a live path, and "
        "swept sites are reachable from the crash-sweep entry"
    )

    def check(self, tree: ProjectTree) -> List[Finding]:
        config = tree.config
        registry_path = config.registry_modules[-1]
        # a tree without the fault catalogue module is not this repo
        # (a fixture or scratch tree); its promises are vacuous here
        if not config.fault_registry or tree.module(registry_path) is None:
            return []
        analysis = tree.effects()
        anchors = analysis.constants.get(registry_path, {})
        entries = analysis.entry_ids(config.sweep_entry)
        sweep_reach = analysis.reachable_from(entries)
        public_reach = analysis.reachable_from(analysis.public_roots())
        swept_values = frozenset(config.sweep_sites)

        findings: List[Finding] = []
        if config.sweep_sites and config.sweep_entry and not entries:
            findings.append(Finding(
                rule=self.name,
                path=registry_path,
                line=0,
                col=0,
                message=(
                    f"crash-sweep entry {config.sweep_entry!r} matches "
                    "no function; update AnalyzerConfig.sweep_entry "
                    "alongside the rename so swept failpoints stay "
                    "proven reachable"
                ),
                symbol="sweep_entry",
            ))

        for symbol in sorted(config.fault_registry):
            value = config.fault_registry[symbol]
            line, col = 0, 0
            anchor = anchors.get(symbol)
            if anchor is not None:
                line, col = anchor[0], anchor[1]
            sites = analysis.fire_sites.get(symbol, [])
            if not sites:
                findings.append(Finding(
                    rule=self.name,
                    path=registry_path,
                    line=line,
                    col=col,
                    message=(
                        f"failpoint {symbol} ({value!r}) is never "
                        "fired anywhere in the tree: a catalogued "
                        "crash point that cannot crash — wire it up "
                        "or delete it"
                    ),
                    symbol=symbol,
                ))
                continue
            if value in swept_values and entries and not any(
                site in sweep_reach for site in sites
            ):
                findings.append(Finding(
                    rule=self.name,
                    path=registry_path,
                    line=line,
                    col=col,
                    message=(
                        f"swept failpoint {symbol} ({value!r}) has no "
                        "fire site reachable from "
                        f"{tree.config.sweep_entry}; the crash sweep "
                        "would silently stop testing this boundary"
                    ),
                    symbol=symbol,
                ))
                continue
            if not any(site in public_reach for site in sites):
                findings.append(Finding(
                    rule=self.name,
                    path=registry_path,
                    line=line,
                    col=col,
                    message=(
                        f"failpoint {symbol} ({value!r}) fires only in "
                        "code unreachable from any public entry point; "
                        "no workload can hit this crash boundary"
                    ),
                    symbol=symbol,
                ))
        return findings
