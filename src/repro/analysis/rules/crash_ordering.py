"""``crash-ordering``: the object store's crash invariants, statically.

That a superblock follows the records it names holds by construction:
``Volume.write_superblock`` computes its own cross-queue barrier and
has one caller, :meth:`ObjectStore._write_directory`, which flushes the
open batch itself (see FAULTS.md).  This rule checks that the
construction stays the only way in — two local queries over the
per-function effect records (:mod:`repro.analysis.effects`):

1. **one commit point** — a ``write_superblock`` call site anywhere but
   :data:`COMMIT_POINT` is a finding: a second site is a second copy of
   the write sequence, free to skip the flush.
2. **through the volume** — a direct ``device.write`` in
   :mod:`repro.objstore` bypasses the volume layer and is a finding.

The volume adapter (``block.py``) is exempt: it *defines*
``write_superblock`` and is the layer that writes the device.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import Finding, ProjectTree, Rule
from repro.analysis.effects import (
    MEDIA_WRITE,
    SUPERBLOCK_WRITE,
    VOLUME_WRITES,
    FunctionNode,
)

#: the one function allowed to call ``write_superblock``
COMMIT_POINT = "ObjectStore._write_directory"


class CrashOrderingRule(Rule):
    name = "crash-ordering"
    summary = (
        "write_superblock has one call site (ObjectStore._write_directory); "
        "the object store writes the device only through the volume"
    )

    def check(self, tree: ProjectTree) -> List[Finding]:
        config = tree.config
        findings: List[Finding] = []
        for _node_id, node in sorted(tree.effects().nodes.items()):
            if node.relpath in config.adapter_modules:
                continue
            in_store = node.relpath.startswith(config.objstore_prefix)
            findings.extend(self._check_write_sites(node, in_store))
        return findings

    def _finding(self, node: FunctionNode, line: int, col: int,
                 message: str) -> Finding:
        return Finding(rule=self.name, path=node.relpath, line=line,
                       col=col, message=message, symbol=node.qual)

    def _check_write_sites(self, node: FunctionNode,
                           in_store: bool) -> List[Finding]:
        """The function's own write sites, in source order: a superblock
        write outside the commit point is a second protocol; in the
        store layer, a device write bypasses the volume."""
        findings: List[Finding] = []
        for line, col, atom, detail in node.record["effects"]:
            if atom == SUPERBLOCK_WRITE and node.qual != COMMIT_POINT:
                findings.append(self._finding(node, line, col, (
                    f"write_superblock() called outside {COMMIT_POINT}(); "
                    "call that instead: the one commit point flushes the "
                    "batch before it names"
                )))
            elif (in_store and atom == MEDIA_WRITE
                    and detail not in VOLUME_WRITES):
                attr = detail.rsplit(".", 1)[-1]
                findings.append(self._finding(node, line, col, (
                    f"raw device.{attr}() bypasses the Volume layer; "
                    "go through volume.write_* so superblock ordering "
                    "holds"
                )))
        return findings
