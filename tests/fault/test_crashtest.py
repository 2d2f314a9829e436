"""The crash-consistency sweep (repro.fault.crashtest).

The workload runs once with the device's write trace on; the sweep
checks every distinct media state a power cut at any instant of that
trace would leave — torn mid-transfer states included — and each must
recover prefix-consistent and leak-free with a restorable latest image
and an fsck that comes back clean or exactly repaired, the same way on
every run.
"""

import pytest

from repro.fault import crashtest
from repro.fault.crashtest import (
    CHECKPOINTS,
    EXPECTED_CRASH_POINTS,
    WorkloadState,
    _boot,
    _device,
    _instants,
    _spans,
    verify_recovery,
    run_sweep,
    run_workload,
)
from repro.hw.device import SECTOR, StorageDevice, landed_bytes
from repro.obs import names as obs_names
from repro.sim.clock import SimClock


@pytest.fixture(scope="module")
def report():
    return run_sweep()


def traced_run():
    kernel, device = _boot()
    device.trace = []
    state = run_workload(kernel, device, WorkloadState())
    return device, state


class TestWorkload:
    def test_golden_run_records_ground_truth(self):
        _device, state = traced_run()
        assert state.completed
        assert state.scrub_errors == 0
        # one checkpoint per round, then the one that dirties every page
        assert len(state.heap_expect) == CHECKPOINTS + 1
        assert len(state.log_appended) == CHECKPOINTS
        # Every superblock generation written is in the history.
        assert sorted(state.history) == list(range(len(state.history)))

    def test_golden_run_reclaims_the_deleted_snapshot_at_a_commit_point(self):
        kernel, device = _boot()
        run_workload(kernel, device, WorkloadState())
        freed = kernel.obs.registry.counter(obs_names.C_GC_EXTENTS_FREED,
                                            store=device.name)
        assert freed.value > 0

    def test_trace_holds_every_write_and_discard(self):
        device, _state = traced_run()
        writes = [entry for entry in device.trace if len(entry) == 4]
        assert len(writes) == device.stats.writes
        assert sum(len(data) for _o, data, _t, _d in writes) > 0
        # the reclaimed snapshot's extents are discarded once dead
        assert len(device.trace) > len(writes)


class TestInstants:
    def test_each_sector_instant_lands_one_more_sector(self):
        # _instants inverts the tear rule: inside a transfer, the
        # landed length changes exactly at the instants it lists
        device, _state = traced_run()
        for entry in device.trace:
            if len(entry) == 3:
                continue
            _offset, data, transfer_at, durable_at = entry
            inside = [at for at in _instants([entry])
                      if transfer_at < at < durable_at]
            assert len(inside) == -(-len(data) // SECTOR) - 1
            landed = [landed_bytes(len(data), transfer_at, durable_at, t)
                      for at in inside for t in (at - 1, at)]
            assert landed == [sector * SECTOR
                              for n in range(1, len(inside) + 1)
                              for sector in (n - 1, n)]


class TestSweep:
    def test_full_sweep_is_clean_and_wide(self, report):
        assert not report.failures, "\n".join(report.failures)
        assert len(report.points) == EXPECTED_CRASH_POINTS
        assert report.width_drift is None
        # every state is distinct and reached at its first instant
        instants = [p.at_ns for p in report.points]
        assert instants == sorted(set(instants))
        # a power cut mid-transfer is most of what the trace adds
        torn = [p for p in report.points if p.torn]
        assert len(torn) > len(report.points) // 2
        # every superblock generation the workload wrote is recovered
        # from some state
        _device, state = traced_run()
        assert {p.generation for p in report.points} == set(state.history)

    def test_each_state_is_checked_once_at_its_first_instant(self, report):
        # Replay the trace at every instant: the checked points are
        # exactly the instants whose media no earlier instant left.
        device, _state = traced_run()
        spans = _spans([entry for entry in device.trace if len(entry) == 4])
        first_of: dict[bytes, int] = {}
        instants = _instants(device.trace)
        for at in instants:
            media = _device(SimClock(at))
            media.replay(device.trace, at)
            key = b"".join(media.read(lo, hi - lo) for lo, hi in spans)
            first_of.setdefault(key, at)
        assert report.instants == len(instants) > len(first_of)
        assert [p.at_ns for p in report.points] == sorted(first_of.values())

    def test_sweep_fails_without_the_superblock_barrier(self, monkeypatch):
        # The last checkpoint's long run drains on queue 1 after queue 0
        # has, so only the superblock's release_ns keeps the superblock
        # from landing before the records it names.  Drop it and some
        # cut recovers a superblock whose image does not restore.
        write_async = StorageDevice.write_async

        def unordered(self, offset, data, logical_nbytes=None, queue=0,
                      release_ns=None):
            return write_async(self, offset, data, logical_nbytes, queue)

        monkeypatch.setattr(StorageDevice, "write_async", unordered)
        failing = [p for p in run_sweep().points if p.failures]
        assert failing
        assert all(f"restore of 'ckpt-{CHECKPOINTS}' failed" in p.failures[0]
                   for p in failing)

    def test_sweep_is_deterministic(self, report):
        def fingerprint(report):
            return [
                (p.at_ns, p.durable, p.torn, p.generation,
                 p.snapshots_recovered)
                for p in report.points
            ]

        assert fingerprint(report) == fingerprint(run_sweep())

    def test_summary_renders(self, report):
        text = report.summary()
        assert "crash sweep: one run" in text
        assert f"{EXPECTED_CRASH_POINTS} distinct media states" in text

    def test_cli_pins_crash_point_count(self, report, capsys, monkeypatch):
        # The CI job pins the sweep's state count so a change that
        # silently narrows what the trace reaches fails the build.
        from repro.cli.main import main

        monkeypatch.setattr(crashtest, "run_sweep", lambda: report)
        assert main(
            ["crashtest", "--expect-points", str(EXPECTED_CRASH_POINTS)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["crashtest", "--expect-points", str(EXPECTED_CRASH_POINTS + 1)]
        ) == 1
        assert "crash-point count" in capsys.readouterr().err

    def test_cli_pinned_keyword_resolves_to_constant(self, report, capsys,
                                                     monkeypatch):
        # "--expect-points pinned" is what CI passes: the expected
        # count lives in exactly one place (EXPECTED_CRASH_POINTS).
        # A pin one off must fail, proving the keyword resolved to it.
        from repro.cli.main import main

        monkeypatch.setattr(crashtest, "run_sweep", lambda: report)
        monkeypatch.setattr(crashtest, "EXPECTED_CRASH_POINTS",
                            EXPECTED_CRASH_POINTS + 1)
        assert main(["crashtest", "--expect-points", "pinned"]) == 1
        err = capsys.readouterr().err
        assert str(EXPECTED_CRASH_POINTS + 1) in err

    def test_fsck_report_export(self, capsys, tmp_path):
        import json

        from repro.cli.main import main

        points = tmp_path / "points.json"
        reports = tmp_path / "fsck.json"
        assert main([
            "crashtest",
            "--json", str(points), "--fsck-report", str(reports),
        ]) == 0
        capsys.readouterr()
        point_lines = [json.loads(line)
                       for line in points.read_text().splitlines()]
        assert len(point_lines) == EXPECTED_CRASH_POINTS
        assert all({"at_ns", "durable", "torn", "generation",
                    "fsck_findings", "fsck_repaired"} <= set(p)
                   for p in point_lines)
        report_lines = [json.loads(line)
                        for line in reports.read_text().splitlines()]
        assert [r["at_ns"] for r in report_lines] == [
            p["at_ns"] for p in point_lines
        ]
        assert all(r["fsck"]["clean"] or r["fsck"]["repaired_all"]
                   for r in report_lines)


class TestCrashPointOracles:
    def test_cut_before_any_write_recovers_empty(self, report):
        first = report.points[0]
        assert first.durable == [] and first.torn == []
        assert first.generation == 0
        assert first.snapshots_recovered == 0
        assert not first.failures

    def test_cut_after_the_last_write_keeps_everything(self, report):
        last = report.points[-1]
        assert last.durable == list(range(report.writes))
        _device, state = traced_run()
        assert last.generation == max(state.history)
        assert last.snapshots_recovered == len(state.history[last.generation])

    def test_log_oracle_counts_only_acknowledged_appends(self, report):
        # Oracle 3a has teeth: at the last state every append is on the
        # media, so a ground truth that says the last one returned only
        # after the cut must be reported as a log prefix mismatch.
        device, state = traced_run()
        last = report.points[-1]
        media = _device(SimClock(last.at_ns))
        media.replay(device.trace, last.at_ns)
        at, payload = state.log_appended[-1]
        assert at <= last.at_ns
        state.log_appended[-1] = (last.at_ns + 1, payload)
        point = crashtest.CrashPointResult(at_ns=last.at_ns)
        verify_recovery(state, media, point)
        [failure] = point.failures
        assert failure.startswith("log prefix mismatch")
