"""The ``sls fleet`` scenario: storm report + noisy-neighbor gate."""

import json

import pytest

from repro.cli.fleet import run_fleet
from repro.cli.main import main


@pytest.fixture
def noisy_cells_from_suite(results, monkeypatch):
    """``sls fleet`` reuses the session bench run's noisy-neighbor pair
    (the same function, ~2.6 s a pair): the command tests pin the
    report's plumbing, the cells themselves are TestNoisyNeighbor's."""
    cells = {False: results["fleet"]["noisy_baseline"],
             True: results["fleet"]["noisy_qos"]}
    monkeypatch.setattr("repro.cli.fleet.noisy_neighbor_cell",
                        lambda *, qos: dict(cells[qos]))


class TestFleetCommand:
    def test_small_fleet_report(self, capsys, noisy_cells_from_suite):
        assert main(["fleet", "--functions", "12",
                     "--invocations", "24"]) == 0
        out = capsys.readouterr().out
        assert "12 functions" in out
        assert "cold start" in out
        assert "with QoS" in out

    def test_json_export(self, tmp_path, capsys, noisy_cells_from_suite):
        path = tmp_path / "fleet.json"
        assert main(["fleet", "--functions", "8", "--invocations", "16",
                     "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        cell = report["fleet"]
        assert cell["functions"] == 8
        assert cell["cold_start_p99_ns"] >= cell["cold_start_p50_ns"] > 0
        assert report["noisy_neighbor"]["qos"]["steady_slo_violated"] is False

    def test_report_is_deterministic(self, monkeypatch):
        # Two real runs end to end — fleet cell, both noisy cells,
        # hermetic ids — at the smallest fleet that still cold-starts
        # and a noisy heap shrunk to match: byte-identity does not
        # depend on size, the 2048-page heap is most of the cost.
        monkeypatch.setattr("repro.cli.fleet.NOISY_PAGES", 64)
        first = run_fleet(1, invocations=2)
        assert first["fleet"]["cold_start_p50_ns"] > 0
        assert first["noisy_neighbor"]["qos"]["noisy_checkpoints"] > 0
        assert run_fleet(1, invocations=2) == first


class TestNoisyNeighbor:
    def test_qos_protects_where_baseline_violates(self, results):
        baseline = results["fleet"]["noisy_baseline"]
        qos = results["fleet"]["noisy_qos"]
        # The whole point of the scheduler: same noisy storm, but only
        # the unthrottled run drags the steady tenant past its SLO.
        assert baseline["steady_slo_violated"]
        assert not qos["steady_slo_violated"]
        assert qos["steady_flush_p99_ns"] < baseline["steady_flush_p99_ns"]
        assert qos["noisy_rejected"] > 0
