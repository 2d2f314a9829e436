"""``failpoint-reachability``: every catalogued failpoint is live.

A failpoint constant in :mod:`repro.fault.names` is a *promise* that a
test can inject a fault at that boundary.  The promise breaks two
ways:

1. **never fired** — the constant exists but no code fires it: a
   documented fault site that cannot fault.
2. **fired only in dead code** — every fire site sits in a function
   unreachable from any public entry point, so no real workload can
   ever reach the boundary.

Findings anchor at the constant's definition in the fault catalogue —
that is the line someone will delete or re-wire.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import Finding, ProjectTree, Rule


class FailpointReachRule(Rule):
    name = "failpoint-reachability"
    summary = (
        "every fault-catalogue constant is fired on a live path"
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
        public_reach = analysis.reachable_from(analysis.public_roots())

        findings: List[Finding] = []
        for symbol in sorted(config.fault_registry):
            value = config.fault_registry[symbol]
            line, col = 0, 0
            anchor = anchors.get(symbol)
            if anchor is not None:
                line, col = anchor[0], anchor[1]
            sites = analysis.fire_sites.get(symbol, [])
            if not sites:
                message = (
                    f"failpoint {symbol} ({value!r}) is never fired "
                    "anywhere in the tree: a catalogued fault site that "
                    "cannot fault — wire it up or delete it"
                )
            elif not any(site in public_reach for site in sites):
                message = (
                    f"failpoint {symbol} ({value!r}) fires only in code "
                    "unreachable from any public entry point; no "
                    "workload can hit this fault boundary"
                )
            else:
                continue
            findings.append(Finding(
                rule=self.name,
                path=registry_path,
                line=line,
                col=col,
                message=message,
                symbol=symbol,
            ))
        return findings
