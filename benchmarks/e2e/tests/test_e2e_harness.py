"""The benchmark measures what it says, names what it measures, and
its oracles can fail."""

import json
import re
import subprocess
import sys

import pytest

import generator
import harness
import report
import spans
from conftest import E2E, ROOT
from workloads import WORKLOADS

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: workloads whose post-reboot restore oracle fails at the commit that
#: added the benchmark (README, "Known at the seed commit"); empty this
#: when ``StoreBackend.persist`` is fixed
KNOWN_AT_SEED = {"ckpt_stream", "crash_recover"}


@pytest.fixture(scope="module")
def quick_results():
    """One traced quick measurement of every workload."""
    return {
        name: harness.measure(name, 1, repeats=1, traced=True, quick=True)
        for name in WORKLOADS
    }


# --- BENCHMARK.json and the output agree, both ways ------------------------------


def test_manifest_shape():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["command"][:2] == ["python3", "benchmarks/e2e/run.py"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in MANIFEST["workloads"])
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(e["bound"] for e in MANIFEST["end_to_end"])}
               for m in MANIFEST["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert len(MANIFEST["per_layer"]) <= 128


def test_manifest_matches_catalogue():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    # the manifest lists the issue's end-to-end metrics that every
    # workload reports, under the issue's names, units and bounds
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in MANIFEST["end_to_end"]] == [
        (name, report.END_TO_END[name][0], "lower", report.END_TO_END[name][2])
        for name in report.driver_end_to_end()
    ]
    assert len(report.END_TO_END) == 15
    assert {m["name"]: (m["unit"], m["better"])
            for m in MANIFEST["per_layer"]} == report.per_layer_catalogue()


def test_every_named_metric_is_reported_and_nothing_else(quick_results):
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    per_layer = {m["name"] for m in MANIFEST["per_layer"]}
    for name, result in quick_results.items():
        plain = harness.driver_line(result, traced=False)
        traced = harness.driver_line(result, traced=True)
        assert set(plain) == {"correct", "attempted", "failed", "metrics"}
        assert set(plain["metrics"]) == end_to_end, name
        assert set(traced["metrics"]) == per_layer, name
        assert plain["attempted"] >= 1
        assert not result["harness_errors"]
        # the full report: a workload reports the catalogued metrics it
        # has the operation for (tails only at full size), never a zero,
        # and beyond them only p50/tails of catalogued operation kinds
        mine = {metric for metric, (_u, _c, _b, by) in report.END_TO_END.items()
                if name in by}
        reported = set(result["metrics"])
        assert reported & set(report.END_TO_END) <= mine, name
        assert {m for m in mine if not re.search(r"_p9\d_ns$", m)} <= reported, name
        for metric, entry in result["metrics"].items():
            assert NAME.fullmatch(metric)
            assert entry["value"] > 0, (name, metric)
            if metric not in report.END_TO_END:
                kind = re.fullmatch(r"(.+)_p\d\d_ns", metric).group(1)
                assert kind in report.OPERATION_KINDS, metric


def test_oracles_feed_ops_failed(quick_results):
    """A page that read back wrong is a failed operation, whichever
    oracle found it; ``correct`` is nothing but ``ops_failed == 0``."""
    for name, result in quick_results.items():
        line = harness.driver_line(result, traced=False)
        wrong = result["counts"]["oracle.postreboot_pages_wrong"]
        assert line["failed"] == result["ops_failed"] == wrong, result["errors"]
        assert line["correct"] is (wrong == 0)
        # the state of the commit that added the benchmark
        assert (wrong > 0) == (name in KNOWN_AT_SEED), name


def test_tolerated_postreboot_restore_is_counted_beside_ops_failed():
    strict = harness.run_pass("ckpt_stream", 2, quick=True)
    tolerant = harness.run_pass("ckpt_stream", 2, quick=True, tolerate=True)
    wrong = "oracle.postreboot_pages_wrong"
    assert tolerant.counts[wrong] == strict.counts[wrong] == strict.ops_failed
    assert tolerant.ops_failed == 0
    assert tolerant.samples == strict.samples


def test_percentiles_keep_their_sample_floor(quick_results):
    assert report.tail_percentile(199) is None
    assert report.tail_percentile(200) == 95
    assert report.tail_percentile(999) == 95
    assert report.tail_percentile(1000) == 99
    for result in quick_results.values():
        for metric, entry in result["metrics"].items():
            match = re.fullmatch(r".*_p(\d\d)_ns", metric)
            if match and match.group(1) != "50":
                beyond = entry["n"] * (100 - int(match.group(1))) // 100
                assert beyond >= 10, (metric, entry)


def test_pass_count_depends_on_the_arguments_only():
    for name, nominal in harness.NOMINAL_PASS_S.items():
        assert harness.pass_count(name, 0.0, 3) == 3
        assert harness.pass_count(name, 10.0, 3) == max(3, -(-10 // nominal))
        assert harness.pass_count(name, 10.0, 50) == 50
    result = harness.measure("mem_tree", 1, repeats=2, quick=True)
    assert result["passes"] == 2 == len(result["host_samples"]["host_s"])
    result = harness.measure("mem_tree", 1, repeats=3, quick=True, traced=True)
    assert (result["passes"], result["traced_passes"]) == (3, 1)


def test_host_time_is_the_sum_of_each_segments_fastest_pass():
    assert harness.quiet_sum([[1.0, 5.0, 1.0], [2.0, 1.0, 3.0]]) == 3.0
    one = harness.run_pass("mem_tree", 3, quick=True)
    two = harness.run_pass("mem_tree", 3, quick=True)
    assert len(one.run_laps) == len(two.run_laps) > 2 * 100  # an op and a gap per tick
    assert len(one.setup_laps) == len(two.setup_laps) > 1
    quiet = harness.quiet_sum([one.run_laps, two.run_laps])
    assert 0 < quiet <= min(one.host_s, two.host_s)


# --- the generator ------------------------------------------------------------------


def test_generator_is_a_pure_function_of_seed_and_workload():
    def draw(seed, workload):
        return (
            generator.heap_pages(seed, workload, 8),
            generator.write_intervals(seed, workload, intervals=3, writes=5, pages=8),
            generator.arrivals(seed, workload, count=5, mean_gap_ns=1000, targets=4),
            generator.shuffled(seed, workload, "order", 16),
            generator.blobs(seed, workload, "custom", count=3, size=16),
        )

    assert draw(7, "ckpt_stream") == draw(7, "ckpt_stream")
    assert draw(7, "ckpt_stream") != draw(8, "ckpt_stream")
    assert draw(7, "ckpt_stream") != draw(7, "restore_mix")


def test_generator_content_mix_is_a_real_mix():
    import zlib

    pages = generator.heap_pages(3, "mix", 400)
    ratios = [len(zlib.compress(p.ljust(generator.PAGE, b"\0"), 1)) / generator.PAGE
              for p in pages]
    incompressible = sum(r > 0.95 for r in ratios)
    sparse = sum(r < 0.05 for r in ratios)
    text = len(pages) - incompressible - sparse
    assert 120 <= incompressible <= 200
    assert 120 <= text <= 200
    assert 50 <= sparse <= 110


def test_heap_model_applies_writes_in_place():
    model = generator.HeapModel([b"abc", b""])
    model.apply([generator.Write(0, 1, b"ZZ"), generator.Write(1, 4090, b"tail")])
    assert model.pages[0][:4] == b"aZZ\0" and len(model.pages[0]) == generator.PAGE
    assert model.pages[1][4090:4094] == b"tail"


# --- the tracer -------------------------------------------------------------------------


def test_tracer_restores_every_binding_it_patched():
    import repro.core.backends as backends
    import repro.objstore.checksum as checksum
    import repro.objstore.record as record
    import repro.objstore.store as store
    from repro.hw.device import StorageDevice

    before = {
        "by-name import": store.fletcher64 if hasattr(store, "fletcher64") else None,
        "record.fletcher64": record.fletcher64,
        "checksum.fletcher64": checksum.fletcher64,
        "backends.capture": backends.capture_pages_to_store,
        "store.encode": store.encode,
        "method": StorageDevice.__dict__["write_batch"],
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert record.fletcher64 is not before["record.fletcher64"]
        assert record.fletcher64 is checksum.fletcher64
        assert backends.capture_pages_to_store is not before["backends.capture"]
        assert store.encode is not before["store.encode"]
        assert StorageDevice.__dict__["write_batch"] is not before["method"]
    finally:
        tracer.uninstall()
    assert record.fletcher64 is before["record.fletcher64"]
    assert checksum.fletcher64 is before["checksum.fletcher64"]
    assert backends.capture_pages_to_store is before["backends.capture"]
    assert store.encode is before["store.encode"]
    assert StorageDevice.__dict__["write_batch"] is before["method"]
    assert not tracer._patched


def test_tracer_wraps_only_public_entry_points():
    for _layer, _module, dotted in spans.ENTRY_POINTS:
        assert not dotted.split(".")[-1].startswith("_"), dotted


def test_trace_reconciles_and_separates_layers(quick_results):
    for name, result in quick_results.items():
        per_layer = result["per_layer"]
        assert per_layer["trace.sim_residual_ns"] == 0, name
        assert per_layer["trace.host_unattributed_permille"] <= 150, name
        assert result["breakdown"], name
        # host self times are one pass's: with the root's own share they
        # add up to that pass's timed region
        layers = sum(per_layer[f"{layer}.host_self_s"] for layer in spans.LAYERS
                     if layer != spans.GENERATOR)
        root = per_layer["trace.host_unattributed_permille"] / 1000
        assert layers == pytest.approx(result["traced_host_s"] * (1 - root),
                                       rel=2e-3), name
        for kind, entry in result["breakdown"].items():
            assert sum(row["sim_self_ns"] for row in entry["layers"].values()) \
                == entry["sim_ns"], (name, kind)
    walkers = ("objstore.store.recover", "objstore.fsck", "objstore.scrub",
               "objstore.gc")
    for name, result in quick_results.items():
        calls = sum(result["per_layer"][f"{layer}.calls"] for layer in walkers)
        assert (calls > 0) == (name == "crash_recover"), name
    mem_tree = quick_results["mem_tree"]["per_layer"]
    assert all(mem_tree[f"{layer}.calls"] == 0 for layer in spans.LAYERS
               if layer.startswith(("objstore.", "hw.")))


def test_tracing_leaves_every_sim_number_alone():
    plain = harness.run_pass("restore_mix", 5, quick=True)
    traced = harness.run_pass("restore_mix", 5, quick=True, traced=True)
    assert plain.digest == traced.digest


# --- the oracles can fail ----------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_expected_pages_raise_ops_failed(name):
    clean = harness.run_pass(name, 2, quick=True)
    broken = harness.run_pass(name, 2, quick=True, corrupt=True)
    assert broken.ops_attempted == clean.ops_attempted
    assert broken.ops_failed > clean.ops_failed
    assert broken.errors
    if name not in KNOWN_AT_SEED:
        assert clean.ops_failed == 0, clean.errors


def test_failed_operations_are_a_result_not_an_exit_code():
    result = harness.measure("restore_mix", 2, repeats=1, quick=True, corrupt=True)
    assert result["ops_failed"] > 0 and result["correct"] is False
    assert not result["harness_errors"]
    line = harness.driver_line(result, traced=False)
    assert line["failed"] == result["ops_failed"] and line["correct"] is False


# --- the command line ------------------------------------------------------------------------


def test_cli_last_line_is_the_driver_object():
    done = subprocess.run(
        MANIFEST["command"] + ["--workload", "crash_recover", "--seed", "4",
                               "--seconds", "0", "--trace", "0", "--quick"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True,
    )
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}
    # the driver's command tolerates the known post-reboot restore defect
    assert last["correct"] is True and last["failed"] == 0
    assert "crash_recover" in done.stdout and "[sim]" in done.stdout
    assert "TOLERATED" in done.stdout


def test_cli_writes_spans_only_at_exit_into_the_json(tmp_path):
    out = tmp_path / "out.json"
    subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "crash_recover",
         "--seed", "4", "--traced", "--quick", "--json", str(out), "--spans"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True,
    )
    tree = json.loads(out.read_text())
    recorded = tree["spans"]
    _setup_root, run_root = [index for index, span in enumerate(recorded)
                             if span[0] == spans.ROOT]

    def under_run_root(index):
        while recorded[index][1] >= 0:
            index = recorded[index][1]
        return index == run_root

    calls = sum(1 for index, span in enumerate(recorded)
                if span[0] == "objstore.store.recover" and under_run_root(index))
    assert calls == tree["per_layer"]["objstore.store.recover.calls"] > 0
    for index, (layer, parent, host0, host1, sim0, sim1) in enumerate(recorded):
        assert host0 <= host1 and sim0 <= sim1
        assert parent < index
        if parent >= 0:
            _layer, _parent, up_host0, up_host1, up_sim0, up_sim1 = recorded[parent]
            assert up_host0 <= host0 and host1 <= up_host1
            assert up_sim0 <= sim0 and sim1 <= up_sim1


def test_cli_fails_without_a_program(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mem_tree",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
