"""The effects engine itself: extraction, linking, fixpoint summaries,
durability linearization, graph export, and the no-reparse warm path.

The rule-level behavior (what the three graph rules *report*) is pinned
in test_rules.py over the same ``effects`` fixture; this file pins the
engine facts those rules consume.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import AnalyzerConfig, ProjectTree
from repro.analysis.cache import SummaryCache
from repro.analysis.effects import (
    CLOCK_ADVANCE,
    EffectAnalysis,
    FAILPOINT_FIRE,
    MEDIA_WRITE,
    OBS_EMIT,
    SUPERBLOCK_WRITE,
)

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "effects"


def fixture_config():
    return AnalyzerConfig(
        obs_registry={"C_OPS": "fx.ops_total"},
        fault_registry={"FP_COMMIT": "fx.commit"},
    )


def build(cache=None):
    tree = ProjectTree.load(FIXTURE, config=fixture_config(), cache=cache)
    return tree, tree.effects()


# -- extraction and linking ------------------------------------------------------


def test_intrinsic_effects_of_the_commit_path():
    _tree, analysis = build()
    [commit] = [n for n in analysis.nodes
                if analysis.nodes[n].qual == "Store.commit"]
    own = {atom for _l, _c, atom, _d
           in analysis.nodes[commit].record["effects"]}
    assert {MEDIA_WRITE, SUPERBLOCK_WRITE, FAILPOINT_FIRE, OBS_EMIT} <= own
    assert CLOCK_ADVANCE not in own


def test_typed_local_call_is_linked():
    # run_sweep's `store = Store(...)` types the receiver, so the
    # method calls resolve without any name-based guessing
    _tree, analysis = build()
    [sweep] = [n for n in analysis.nodes
               if analysis.nodes[n].qual == "run_sweep"]
    callee_quals = {
        analysis.nodes[c].qual for c in analysis.nodes[sweep].callees
    }
    assert "Store.commit" in callee_quals
    assert "Store.__init__" in callee_quals


def test_fixpoint_propagates_effects_to_the_entry():
    # the sweep entry touches no device itself; everything below it
    # flows up through the SCC-ordered fixpoint
    _tree, analysis = build()
    [sweep] = [n for n in analysis.nodes
               if analysis.nodes[n].qual == "run_sweep"]
    summary = analysis.summaries[sweep]
    assert {MEDIA_WRITE, SUPERBLOCK_WRITE, FAILPOINT_FIRE} <= summary


def test_fire_and_emit_sites_are_indexed():
    _tree, analysis = build()
    assert "FP_COMMIT" in analysis.fire_sites
    assert "C_OPS" in analysis.emit_sites
    quals = {analysis.nodes[s].qual
             for s in analysis.fire_sites["FP_COMMIT"]}
    assert "Store.commit" in quals


def test_private_uncalled_helper_is_not_public_reachable():
    _tree, analysis = build()
    reach = analysis.reachable_from(analysis.public_roots())
    [orphan] = [n for n in analysis.nodes
                if analysis.nodes[n].qual == "Store._orphan"]
    assert orphan not in reach


# -- durability linearization ----------------------------------------------------


def test_root_sequence_orders_the_good_commit():
    _tree, analysis = build()
    [commit] = analysis.roots_matching(["Store.commit"])
    atoms = [atom for _l, _c, atom, _d in analysis.root_sequence(commit)]
    assert atoms == [FAILPOINT_FIRE, MEDIA_WRITE, SUPERBLOCK_WRITE]


def test_root_sequence_keeps_source_order_for_the_bad_commit():
    _tree, analysis = build()
    [root] = analysis.roots_matching(["Store.commit_after_super"])
    atoms = [atom for _l, _c, atom, _d in analysis.root_sequence(root)]
    assert atoms == [FAILPOINT_FIRE, SUPERBLOCK_WRITE, MEDIA_WRITE]


# -- graph export ----------------------------------------------------------------


def test_graph_json_is_schema_two_and_marks_reachability():
    _tree, analysis = build()
    document = analysis.to_json()
    assert document["schema"] == 2
    json.dumps(document)  # must be serializable as-is
    nodes = {node["id"]: node for node in document["nodes"]}
    [commit] = analysis.roots_matching(["Store.commit"])
    assert nodes[commit]["reachable_from_public"] is True
    assert MEDIA_WRITE in nodes[commit]["effects"]
    [orphan] = [n for n in nodes if nodes[n]["qual"] == "Store._orphan"]
    assert nodes[orphan]["reachable_from_public"] is False
    assert [commit, [c for c in analysis.nodes[commit].callees][0]] in (
        document["edges"]
    ) or any(edge[0] == commit for edge in document["edges"])


def test_graph_dot_renders_the_effectful_subgraph():
    _tree, analysis = build()
    dot = analysis.to_dot()
    assert dot.startswith("digraph sls_effects {")
    assert "Store.commit" in dot
    # effect-free helpers stay out of the picture
    assert "StorageDevice.__init__" not in dot


# -- the warm path ---------------------------------------------------------------


def test_warm_build_serves_facts_without_reparsing(tmp_path):
    cache_path = tmp_path / "cache.json"
    cold = SummaryCache(cache_path)
    tree, _analysis = build(cache=cold)
    assert cold.misses > 0
    cold.save()

    warm = SummaryCache.load(cache_path)
    tree, analysis = build(cache=warm)
    assert warm.misses == 0
    assert warm.hits == len(tree.modules)
    # the incremental claim: unchanged modules are never parsed again
    assert all(not mod.parsed for mod in tree.modules)
    [commit] = analysis.roots_matching(["Store.commit"])
    assert MEDIA_WRITE in analysis.summaries[commit]


def test_cache_invalidates_on_content_change(tmp_path):
    source = FIXTURE / "repro" / "sweep.py"
    copy_root = tmp_path / "tree"
    for path in sorted(FIXTURE.rglob("*.py")):
        target = copy_root / path.relative_to(FIXTURE)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text())
    del source

    cache_path = tmp_path / "cache.json"
    cold = SummaryCache(cache_path)
    tree = ProjectTree.load(copy_root, config=fixture_config(), cache=cold)
    tree.effects()
    cold.save()

    edited = copy_root / "repro" / "sweep.py"
    edited.write_text(edited.read_text() + "\n\ndef extra():\n    pass\n")
    warm = SummaryCache.load(cache_path)
    tree = ProjectTree.load(copy_root, config=fixture_config(), cache=warm)
    analysis = tree.effects()
    assert warm.misses == 1  # exactly the edited module re-extracts
    assert any(node.qual == "extra" for node in analysis.nodes.values())
    parsed = [mod.relpath for mod in tree.modules if mod.parsed]
    assert parsed == ["repro/sweep.py"]
