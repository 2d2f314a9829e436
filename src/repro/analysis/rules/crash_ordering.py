"""``crash-ordering``: the object store's crash invariants, statically.

The store's durability contract (see FAULTS.md and the docstring of
:class:`repro.objstore.store.ObjectStore`) has three machine-checkable
parts, each one query over the whole-program effect graph
(:mod:`repro.analysis.effects`):

1. **superblock-after-records** — a superblock naming a snapshot must
   be ordered after that snapshot's records in device queue order.
   With batched I/O the dangerous shape is concrete: records buffered
   in the open :class:`WriteBatch` while ``write_superblock`` runs
   would let the snapshot's *name* reach the device before its *data*.
   A typestate scan over the linearized ``BATCH_APPEND`` /
   ``BATCH_FLUSH`` / ``SUPERBLOCK_WRITE`` atoms (callees inlined through
   the resolved call graph) of every object-store function and every
   configured durability root reports any superblock write reachable
   with a batched record still unflushed.

2. **cross-queue barrier** — per-queue FIFO is not enough once the
   batch flush shards records over multiple submission queues: the
   superblock's ordering guarantee must be explicit.  Every
   ``write_superblock`` call site in the store layer therefore has to
   pass a ``release_ns=`` barrier (the device's pending deadline — the
   max completion time across *all* queues), proving the superblock
   starts only after every shard's records.  Passing a literal ``None``
   defeats the barrier and is a finding.

3. **failpoint coverage** — every raw volume/device write call site in
   :mod:`repro.objstore` sits in a function that fires a catalogued
   failpoint *before* the write, so the crash sweep can power-cut at
   every store-level durability boundary.  The volume adapter
   (``block.py``) is exempt: its device calls are covered by the
   failpoints inside :class:`~repro.hw.device.StorageDevice`.  Direct
   ``device.write`` calls anywhere else in the package bypass the
   volume layer and are findings outright.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import Finding, ProjectTree, Rule
from repro.analysis.effects import (
    BATCH_APPEND,
    BATCH_ATOMS,
    BATCH_FLUSH,
    FAILPOINT_FIRE,
    MEDIA_WRITE,
    SUPERBLOCK_WRITE,
    UNBARRIERED,
    VOLUME_WRITES,
    EffectAnalysis,
    FunctionNode,
)


class CrashOrderingRule(Rule):
    name = "crash-ordering"
    summary = (
        "superblock writes flush the open batch first and carry a "
        "release_ns barrier over all flush shards; every raw objstore "
        "write site sits under a registered failpoint"
    )

    def check(self, tree: ProjectTree) -> List[Finding]:
        config = tree.config
        analysis = tree.effects()
        store_layer = {
            node_id for node_id, node in analysis.nodes.items()
            if node.relpath.startswith(config.objstore_prefix)
        }
        roots = store_layer | set(
            analysis.roots_matching(config.durability_roots)
        )
        findings: List[Finding] = []
        for node_id in sorted(roots):
            node = analysis.nodes[node_id]
            findings.extend(self._check_ordering(analysis, node))
            if (node_id in store_layer
                    and node.relpath not in config.adapter_modules):
                findings.extend(self._check_write_sites(node))
        # two same-named callees can inline the same violation twice
        return list(dict.fromkeys(findings))

    def _finding(self, node: FunctionNode, line: int, col: int,
                 message: str) -> Finding:
        return Finding(rule=self.name, path=node.relpath, line=line,
                       col=col, message=message, symbol=node.qual)

    def _check_ordering(self, analysis: EffectAnalysis,
                        node: FunctionNode) -> List[Finding]:
        """On the path from ``node``, no superblock write may be
        reachable while a batched record (its own or an inlined
        callee's) is unflushed."""
        findings: List[Finding] = []
        pending_since = None
        for line, col, atom, detail in analysis.root_sequence(
            node.node_id, BATCH_ATOMS
        ):
            if atom == BATCH_APPEND:
                if pending_since is None:
                    # own site: the producer; inlined: the callee's name
                    pending_since = detail.rsplit(".", 1)[-1].split()[-1]
            elif atom == BATCH_FLUSH:
                pending_since = None
            elif pending_since is not None:
                findings.append(self._finding(node, line, col, (
                    "superblock write reachable with batched "
                    f"records (from {pending_since!r}) still "
                    "unflushed; flush the open WriteBatch first"
                )))
                pending_since = None  # one report per unflushed run
        return findings

    def _check_write_sites(self, node: FunctionNode) -> List[Finding]:
        """The function's own raw write sites, in source order: device
        writes bypass the volume outright; volume writes need a
        failpoint fired earlier in this function; and a superblock
        write needs a real ``release_ns=`` barrier — per-queue FIFO
        cannot order it after records a sharded flush submitted on
        *other* queues."""
        findings: List[Finding] = []
        fired = False
        for line, col, atom, detail in node.record["effects"]:
            if atom == FAILPOINT_FIRE:
                fired = True
            elif atom == MEDIA_WRITE and detail not in VOLUME_WRITES:
                attr = detail.rsplit(".", 1)[-1]
                findings.append(self._finding(node, line, col, (
                    f"raw device.{attr}() bypasses the Volume layer; "
                    "go through volume.write_* so superblock ordering "
                    "and failpoint coverage hold"
                )))
            elif atom in (MEDIA_WRITE, SUPERBLOCK_WRITE):
                if not fired:
                    findings.append(self._finding(node, line, col, (
                        f"{detail.split()[0]}() call site has no registered "
                        "failpoint fired before it in this function; fire "
                        "an FP_* constant so the crash sweep covers this "
                        "boundary"
                    )))
                if detail == UNBARRIERED:
                    findings.append(self._finding(node, line, col, (
                        "write_superblock() without a release_ns= "
                        "barrier: FIFO durability holds only per "
                        "submission queue, so pass "
                        "release_ns=device.pending_deadline() to order "
                        "the superblock after every shard's records"
                    )))
        return findings
