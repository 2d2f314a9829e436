"""``durability-order``: commit paths end at the superblock — proven
interprocedurally.

Aurora's single-level-store claim rests on one ordering discipline:
anything a public commit/checkpoint API externalizes is named by a
superblock write *after* it, so the committed generation covers every
byte it references.  ``crash-ordering`` asks local questions of the
same effect records (one superblock call site, no raw device write in
the store); this rule checks the discipline across the whole program
by scanning the effect linearization of every configured durability
root (:attr:`AnalyzerConfig.durability_roots`): **superblock-last** —
no ``MEDIA_WRITE`` occurs after the *last* ``SUPERBLOCK_WRITE``.  Bytes
written after the final superblock are externalized state the
committed generation does not cover (a later commit may, but then
*that* superblock is the last atom).

The linearization is an over-approximation (branches concatenate in
source order, same-named candidates merge — see
:mod:`repro.analysis.effects`), which errs toward reporting: a path
the linker cannot prove ordered is worth a human look.

A configured root that matches no function in the tree is itself a
finding: renaming ``SLS.checkpoint`` away must not silently turn the
rule off.  That rename protection is scoped to trees that carry the
fault catalogue (``AnalyzerConfig.registry_modules[-1]``) — on a
scratch tree or fixture without it, whole-program invariants about
*this* repo's commit paths are vacuous and the rule stays quiet.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import Finding, ProjectTree, Rule
from repro.analysis.effects import MEDIA_WRITE, SUPERBLOCK_WRITE


class DurabilityOrderRule(Rule):
    name = "durability-order"
    summary = (
        "every public commit/checkpoint path reaches the superblock "
        "after its last media write"
    )

    def check(self, tree: ProjectTree) -> List[Finding]:
        analysis = tree.effects()
        findings: List[Finding] = []
        roots = analysis.roots_matching(tree.config.durability_roots)
        matched = {analysis.nodes[root].qual for root in roots}
        anchored = tree.module(tree.config.registry_modules[-1]) is not None
        for qual in tree.config.durability_roots:
            if anchored and qual not in matched:
                findings.append(Finding(
                    rule=self.name,
                    path="<config>",
                    line=0,
                    col=0,
                    message=(
                        f"durability root {qual!r} matches no function "
                        "in the tree; update "
                        "AnalyzerConfig.durability_roots alongside the "
                        "rename so commit paths stay checked"
                    ),
                    symbol=qual,
                ))
        for root in roots:
            findings.extend(self._check_root(analysis, root))
        return findings

    def _check_root(self, analysis, root: str) -> List[Finding]:
        node = analysis.nodes[root]
        sequence = analysis.root_sequence(root)
        findings: List[Finding] = []
        # scan backward: media with no later superblock is uncovered
        # externalized state
        if any(atom == SUPERBLOCK_WRITE for _l, _c, atom, _d in sequence):
            seen = set()
            superblock_later = False
            for line, col, atom, detail in reversed(sequence):
                if atom == SUPERBLOCK_WRITE:
                    superblock_later = True
                elif (atom == MEDIA_WRITE and not superblock_later
                        and (line, col, detail) not in seen):
                    seen.add((line, col, detail))
                    findings.append(Finding(
                        rule=self.name,
                        path=node.relpath,
                        line=line,
                        col=col,
                        message=(
                            f"MEDIA_WRITE ({detail}) on the path from "
                            f"durability root {node.qual}() after the "
                            "last SUPERBLOCK_WRITE; the committed "
                            "superblock does not cover these bytes — "
                            "order the write before the superblock "
                            "barrier"
                        ),
                        symbol=node.qual,
                    ))
        findings.reverse()
        return findings
