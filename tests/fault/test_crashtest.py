"""The crash-consistency sweep (repro.fault.crashtest).

The acceptance bar for the fault plane: ≥ 50 distinct crash points
across the commit (reclaim included), log-append, scrub, and
SLSFS-snapshot paths, every recovery prefix-consistent and leak-free
with a restorable latest image and an fsck that comes back clean or
exactly repaired, deterministically under a fixed seed.
"""

from repro.fault import names
from repro.fault.crashtest import (
    CHECKPOINTS,
    EXPECTED_CRASH_POINTS,
    SWEEP_SITES,
    WorkloadState,
    _boot,
    golden_hits,
    run_crash_point,
    run_sweep,
    run_workload,
)
from repro.obs import names as obs_names


class TestWorkload:
    def test_golden_run_completes_and_hits_every_site(self):
        hits = golden_hits()
        assert set(hits) == set(SWEEP_SITES)
        assert all(count > 0 for count in hits.values())

    def test_golden_run_records_ground_truth(self):
        kernel, device = _boot(seed=1)
        state = run_workload(kernel, device, WorkloadState())
        assert state.completed
        assert len(state.heap_expect) == CHECKPOINTS
        assert len(state.log_appended) == CHECKPOINTS
        # Every superblock generation written is in the history.
        assert sorted(state.history) == list(range(len(state.history)))

    def test_golden_run_reclaims_the_deleted_snapshot_at_a_commit_point(self):
        kernel, device = _boot(seed=1)
        run_workload(kernel, device, WorkloadState())
        freed = kernel.obs.registry.counter(obs_names.C_GC_EXTENTS_FREED,
                                            store=device.name)
        assert freed.value > 0


class TestSweep:
    def test_full_sweep_is_clean_and_wide(self):
        report = run_sweep()
        assert not report.failures, "\n".join(report.failures)
        # The acceptance floor: ≥ 50 distinct crash points...
        assert len(report.crash_points) >= 50
        # ...spread across the four consistency-critical paths.
        fired = report.fired_by_site()
        assert fired.get(names.FP_STORE_COMMIT, 0) >= CHECKPOINTS
        assert fired.get(names.FP_LOG_APPEND, 0) >= CHECKPOINTS
        # reclaim runs at the commit point, which the sweep cuts
        assert fired.get(names.FP_STORE_WRITE_DIRECTORY, 0) >= CHECKPOINTS
        assert fired.get(names.FP_FS_SYNC, 0) >= CHECKPOINTS
        assert fired.get(names.FP_DEVICE_WRITE, 0) >= 30
        # The sharded parallel flush contributes its own crash sites:
        # a power cut with some shards submitted and the rest buffered.
        assert fired.get(names.FP_STORE_SHARD_FLUSH, 0) >= CHECKPOINTS
        # The online scrub is swept too: a cut mid-scrub must leave
        # nothing behind, since scrubbing only reads.
        assert fired.get(names.FP_SCRUB_STEP, 0) >= 1
        # Every armed point actually fired (indices came from golden).
        assert len(report.crash_points) == len(report.points)
        # Full fidelity matches the pin CI enforces; a mismatch would
        # also have been flagged by the sweep itself as width drift.
        assert len(report.crash_points) == EXPECTED_CRASH_POINTS
        assert report.width_drift is None

    def test_sweep_is_deterministic(self):
        def fingerprint(report):
            return [
                (p.site, p.index, p.at_ns, p.generation,
                 p.snapshots_recovered)
                for p in report.points
            ]

        a = run_sweep(stride=8)
        b = run_sweep(stride=8)
        assert fingerprint(a) == fingerprint(b)

    def test_summary_renders(self):
        report = run_sweep(stride=16)
        text = report.summary()
        assert "crash sweep" in text
        assert names.FP_STORE_COMMIT in text

    def test_cli_pins_crash_point_count(self, capsys):
        # The CI job pins the sweep's crash-point count so a silently
        # dropped crash site fails the build.
        from repro.cli.main import main

        count = len(run_sweep(stride=16).crash_points)
        assert main(
            ["crashtest", "--stride", "16", "--expect-points", str(count)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["crashtest", "--stride", "16", "--expect-points", str(count + 1)]
        ) == 1
        assert "crash-point count" in capsys.readouterr().err

    def test_cli_pinned_keyword_resolves_to_constant(self, capsys):
        # "--expect-points pinned" is what CI passes: the expected
        # width lives in exactly one place (EXPECTED_CRASH_POINTS), so
        # adding a crash site can never leave a stale number in the
        # workflow file.  A strided sweep visits fewer points, so the
        # pinned count must fail it — proving the keyword resolved.
        from repro.cli.main import main

        assert main(
            ["crashtest", "--stride", "16", "--expect-points", "pinned"]
        ) == 1
        err = capsys.readouterr().err
        assert str(EXPECTED_CRASH_POINTS) in err

    def test_fsck_report_export(self, capsys, tmp_path):
        import json

        from repro.cli.main import main

        points = tmp_path / "points.json"
        reports = tmp_path / "fsck.json"
        assert main([
            "crashtest", "--stride", "16",
            "--json", str(points), "--fsck-report", str(reports),
        ]) == 0
        capsys.readouterr()
        point_lines = [json.loads(line)
                       for line in points.read_text().splitlines()]
        assert all("fsck_findings" in p and "fsck_repaired" in p
                   for p in point_lines)
        report_lines = [json.loads(line)
                        for line in reports.read_text().splitlines()]
        assert len(report_lines) == len(point_lines)
        assert all(r["fsck"]["clean"] or r["fsck"]["repaired_all"]
                   for r in report_lines)


class TestCrashPointOracles:
    def test_crash_before_any_write_recovers_empty(self):
        point = run_crash_point(names.FP_DEVICE_WRITE, 0)
        assert point.fired
        assert point.generation == 0
        assert point.snapshots_recovered == 0
        assert not point.failures

    def test_crash_on_last_commit_keeps_prefix(self):
        hits = golden_hits()
        point = run_crash_point(
            names.FP_STORE_COMMIT, hits[names.FP_STORE_COMMIT] - 1
        )
        assert point.fired
        assert not point.failures
        # Everything before the torn final commit survived.
        assert point.snapshots_recovered > 0
