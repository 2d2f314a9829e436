"""``sls bench``: determinism, the speedup floor, and the compare gate."""

import copy
import json

import pytest

from repro.cli.bench import compare, run_suite, to_json
from repro.cli.main import main

# ``results`` is the session-scoped full suite run (conftest.py).


class TestDeterminism:
    def test_two_runs_are_byte_identical(self):
        # The whole point of the virtual clock: CI can diff the output.
        # Checked on the two cheapest scenarios, each run twice and
        # compared with itself; the whole tree is pinned by the bench
        # job's `git diff BENCH_4.json`.
        for scenario in ("pipeline", "restore"):
            first = run_suite(only=scenario)
            assert len(first[scenario]) > 0
            assert to_json(run_suite(only=scenario)) == to_json(first)

    @pytest.mark.parametrize("scenario", ["writeamp", "restorecache"])
    def test_a_scenario_alone_equals_its_full_suite_subtree(self, results,
                                                            scenario):
        # Every world numbers its own ids, so a cell's numbers cannot
        # depend on which cells this process ran before it.
        assert run_suite(only=scenario)[scenario] == results[scenario]

    def test_rendering_is_canonical(self, results):
        rendered = to_json(results)
        assert rendered.endswith("\n")
        assert json.loads(rendered) == results
        assert rendered == json.dumps(results, sort_keys=True, indent=2) + "\n"

    def test_all_leaves_are_integers(self, results):
        def walk(node):
            for value in node.values():
                if isinstance(value, dict):
                    walk(value)
                elif isinstance(value, list):
                    assert all(isinstance(v, int) for v in value)
                else:
                    assert isinstance(value, int), value

        walk(results)


class TestAcceptance:
    def test_batching_speedup_at_depth(self, results):
        # The batching tentpole's acceptance floor, >= 2x at queue
        # depth >= 8, against the per-record path's last measured
        # flush lag (retired with that path; see BENCHMARKS.md).
        flush = results["checkpoint_flush"]
        per_record_flush_lag_ns = 2_475_866  # unbatched_qd8 == unbatched_qd16
        for cell in ("batched_qd8", "batched_qd16"):
            assert flush[cell]["flush_lag_ns"] * 2 <= per_record_flush_lag_ns

    def test_batching_amortizes_doorbells(self, results):
        # One command and one doorbell per record is what the
        # per-record path paid; the batch pays under a tenth of it.
        cell = results["checkpoint_flush"]["batched_qd8"]
        assert cell["doorbells"] < cell["records"] // 10
        assert cell["extents"] < cell["records"] // 10

    def test_stop_time_unaffected_by_flush_path(self, results):
        # The flush is asynchronous: however deep the queue, the
        # application is stopped for the same time.
        flush = results["checkpoint_flush"]
        assert len({cell["stop_ns"] for cell in flush.values()}) == 1

    def test_pipeline_cell_overlaps(self, results):
        assert results["pipeline"]["overlapped"] == 1
        assert results["pipeline"]["pipelined_checkpoints"] >= 1

    def test_multiqueue_speedup(self, results):
        # The multi-queue tentpole's acceptance floor: the sharded
        # parallel flush is >= 1.5x faster at 4 queues than 1 (qd8).
        assert results["derived"]["speedup_nq4_x1000"] >= 1500

    def test_writeamp_reduction(self, results):
        # The codec tentpole's acceptance floor: incremental
        # checkpoints under the codec move >= 2x fewer media bytes
        # than the RAW path, at every queue count.
        for num_queues in (1, 2, 4):
            key = f"speedup_writeamp_nq{num_queues}_x1000"
            assert results["derived"][key] >= 2000

    def test_writeamp_cells_same_work(self, results):
        cells = results["writeamp"]
        # Same dirty pages per incremental round in every cell; only
        # the encoding differs — and the codec cells actually encode.
        assert (
            cells["raw_nq1"]["pages_delta"] == cells["raw_nq1"]["pages_compressed"] == 0
        )
        for num_queues in (1, 2, 4):
            raw, codec = cells[f"raw_nq{num_queues}"], cells[f"codec_nq{num_queues}"]
            assert raw["incr_full_bytes"] == codec["incr_full_bytes"]
            assert codec["pages_delta"] > 0
            assert codec["incr_media_bytes"] < raw["incr_media_bytes"]

    def test_multiqueue_flush_spreads_shards(self, results):
        cells = results["multiqueue_flush"]
        assert cells["nq1_qd8"]["shards"] == 1
        assert cells["nq2_qd8"]["shards"] == 2
        assert cells["nq4_qd8"]["shards"] == 4
        # Same work lands in every cell; only the parallelism differs.
        assert (
            cells["nq1_qd8"]["records"]
            == cells["nq2_qd8"]["records"]
            == cells["nq4_qd8"]["records"]
        )

    def test_restorecache_p99_collapse(self, results):
        # The page-cache tentpole's acceptance floor: recorded-order
        # prefetch collapses lazy-restore fault p99 by >= 2x vs. the
        # read-through baseline at nq4 (and, in fact, everywhere).
        for num_queues in (1, 2, 4):
            key = f"speedup_restorecache_nq{num_queues}_x1000"
            assert results["derived"][key] >= 2000

    def test_restorecache_hit_rate_floor(self, results):
        # The replayed restore must serve >= 90% of its demand faults
        # from cache (the compare gate tolerances _ns/speedup_ leaves
        # only, so the permille floor is pinned here).
        for num_queues in (1, 2, 4):
            cell = results["restorecache"][f"nq{num_queues}"]
            assert cell["cache_hit_rate_permille"] >= 900
            assert cell["recorded_faults"] > 0

    def test_restorecache_prefetch_scales_with_queues(self, results):
        # The prefetch stream fans coalesced runs round-robin across
        # the submission queues, so its up-front cost shrinks as the
        # queue count grows.
        cells = results["restorecache"]
        assert (
            cells["nq4"]["replay_restore_ns"]
            < cells["nq2"]["replay_restore_ns"]
            < cells["nq1"]["replay_restore_ns"]
        )

    def test_bench_fault_log_export(self):
        from repro.cli.bench import last_fault_log_jsonl
        from repro.objstore.pagecache import FaultOrderLog

        run_suite(only="restorecache")  # the last run's log is kept
        text = last_fault_log_jsonl()
        assert text is not None
        log = FaultOrderLog.from_jsonl(text)
        assert len(log) > 0
        assert all(len(rec.content_hash) == 20 for rec in log.entries)

    def test_only_runs_a_single_scenario(self, results):
        partial = run_suite(only="multiqueue_flush")
        assert set(partial) == {"meta", "multiqueue_flush", "derived"}
        assert partial["multiqueue_flush"] == results["multiqueue_flush"]
        with pytest.raises(KeyError):
            run_suite(only="nonesuch")

    def test_matches_committed_baseline(self, results):
        with open("benchmarks/results/baseline.json") as handle:
            baseline = json.load(handle)
        assert compare(results, baseline) == []


class TestCompareGate:
    def test_identical_runs_pass(self, results):
        assert compare(results, copy.deepcopy(results)) == []

    def test_timing_regression_caught(self, results):
        current = copy.deepcopy(results)
        cell = current["checkpoint_flush"]["batched_qd8"]
        cell["flush_lag_ns"] = int(cell["flush_lag_ns"] * 1.5)
        regressions = compare(current, results)
        assert len(regressions) == 1
        assert "batched_qd8.flush_lag_ns" in regressions[0]

    def test_timing_within_tolerance_passes(self, results):
        current = copy.deepcopy(results)
        cell = current["checkpoint_flush"]["batched_qd8"]
        cell["flush_lag_ns"] = int(cell["flush_lag_ns"] * 1.04)
        assert compare(current, results, tolerance=0.05) == []

    def test_speedup_drop_caught(self, results):
        current = copy.deepcopy(results)
        current["derived"]["speedup_nq4_x1000"] //= 2
        regressions = compare(current, results)
        assert len(regressions) == 1
        assert "speedup_nq4_x1000" in regressions[0]

    def test_speedup_gain_passes(self, results):
        current = copy.deepcopy(results)
        current["derived"]["speedup_nq4_x1000"] *= 2
        assert compare(current, results) == []

    def test_missing_scenario_is_a_regression(self, results):
        current = copy.deepcopy(results)
        del current["checkpoint_flush"]["batched_qd1"]
        regressions = compare(current, results)
        assert any("missing from current run" in r for r in regressions)

    def test_new_scenario_in_current_ignored(self, results):
        current = copy.deepcopy(results)
        current["checkpoint_flush"]["batched_qd32"] = {"flush_lag_ns": 1}
        assert compare(current, results) == []

    def test_meta_mismatch_caught(self, results):
        current = copy.deepcopy(results)
        current["meta"]["suite_version"] = results["meta"]["suite_version"] + 1
        regressions = compare(current, results)
        assert any("suite_version" in r for r in regressions)


class TestCliEntry:
    @pytest.fixture
    def suite_from_fixture(self, results, monkeypatch):
        """Full-suite ``sls bench`` runs reuse the session fixture's
        result: these tests pin the CLI plumbing (files, compare, exit
        codes), determinism is TestDeterminism's re-run."""
        def stub(only=None):
            assert only is None
            return copy.deepcopy(results)

        monkeypatch.setattr("repro.cli.bench.run_suite", stub)

    def test_bench_json_and_compare_roundtrip(self, tmp_path, capsys,
                                              suite_from_fixture):
        out = tmp_path / "bench.json"
        assert main(["bench", "--json", str(out)]) == 0
        first = out.read_text()
        assert json.loads(first)["meta"]["pages"] > 0
        # Comparing a run against its own output is clean.
        assert main(["bench", "--json", str(out), "--compare", str(out)]) == 0
        assert out.read_text() == first
        captured = capsys.readouterr()
        assert "no regressions" in captured.out

    def test_bench_compare_fails_on_regression(self, tmp_path, capsys,
                                               suite_from_fixture):
        baseline = tmp_path / "baseline.json"
        assert main(["bench", "--json", str(baseline)]) == 0
        doctored = json.loads(baseline.read_text())
        doctored["checkpoint_flush"]["batched_qd8"]["flush_lag_ns"] = 1
        baseline.write_text(json.dumps(doctored))
        assert main(["bench", "--compare", str(baseline)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSIONS" in captured.err

    def test_bench_only_flag(self, tmp_path, capsys):
        out = tmp_path / "partial.json"
        assert main(["bench", "--only", "pipeline", "--json", str(out)]) == 0
        partial = json.loads(out.read_text())
        assert set(partial) == {"meta", "pipeline", "derived"}
        capsys.readouterr()
        assert main(["bench", "--only", "nonesuch"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bench_fault_log_flag(self, tmp_path, capsys):
        from repro.objstore.pagecache import FaultOrderLog

        out = tmp_path / "bench.json"
        fault_log = tmp_path / "faults.jsonl"
        assert main([
            "bench", "--only", "restorecache",
            "--json", str(out), "--fault-log", str(fault_log),
        ]) == 0
        log = FaultOrderLog.from_jsonl(fault_log.read_text())
        assert len(log) > 0
        capsys.readouterr()
        # A run that skips restorecache has no fault order to export.
        assert main([
            "bench", "--only", "pipeline", "--fault-log", str(fault_log),
        ]) == 2
        assert "restorecache" in capsys.readouterr().err

    def test_bench_only_rejects_compare(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        assert main([
            "bench", "--only", "pipeline", "--compare", str(baseline)
        ]) == 2
        assert "--only" in capsys.readouterr().err
