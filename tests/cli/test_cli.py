"""Tests for the `sls` CLI (Table 1 commands)."""

import pytest

from repro.cli.main import DEMO_SCRIPT, main, run_lines
from repro.cli.session import SlsSession
from repro.errors import RestoreError, SlsError
from repro.units import MIB


@pytest.fixture
def session():
    return SlsSession(redis_working_set=4 * MIB)


class TestCommands:
    def test_launch_and_persist(self, session):
        assert "launched" in session.execute("launch redis0")
        assert "persisting" in session.execute("persist redis0")

    def test_persist_unknown_app(self, session):
        with pytest.raises(SlsError):
            session.execute("persist ghost")

    def test_attach_detach(self, session):
        session.execute("launch hello0")
        session.execute("persist hello0")
        assert "attached" in session.execute("attach hello0 nvme0")
        assert "detached" in session.execute("detach hello0 nvme0")

    def test_checkpoint_reports_breakdown(self, session):
        session.execute("launch hello0")
        session.execute("persist hello0")
        session.execute("attach hello0 nvme0")
        output = session.execute("checkpoint hello0")
        assert "stop" in output and "metadata" in output and "pages" in output

    def test_restore_reports_latency(self, session):
        session.execute("launch hello0")
        session.execute("persist hello0")
        session.execute("attach hello0 nvme0")
        session.execute("checkpoint hello0")
        output = session.execute("restore hello0")
        assert "restored" in output and "pids" in output

    def test_restore_names_the_memory_backend_that_captured_the_image(self, session):
        session.execute("launch hello0")
        session.execute("persist hello0")
        session.execute("attach hello0 mem0")
        session.execute("checkpoint hello0 --sync")
        output = session.execute("restore hello0 --backend=mem0")
        assert "restored" in output and "read 0 ns" in output
        # a name that holds no copy of the image is not a memory backend
        with pytest.raises(RestoreError, match="not present on backend 'memory'"):
            session.execute("restore hello0 --backend=memory")

    def test_restore_without_image(self, session):
        session.execute("launch hello0")
        session.execute("persist hello0")
        with pytest.raises(SlsError):
            session.execute("restore hello0")

    def test_ps_lists_groups(self, session):
        session.execute("launch hello0")
        session.execute("persist hello0")
        output = session.execute("ps")
        assert "hello0" in output
        assert "GROUP" in output

    def test_ps_empty(self, session):
        assert "no persisted applications" in session.execute("ps")

    def test_send_recv_roundtrip(self, session):
        session.execute("launch hello0")
        session.execute("persist hello0")
        session.execute("attach hello0 nvme0")
        session.execute("checkpoint hello0")
        assert "sent" in session.execute("send hello0")
        assert "restored hello0 on aurora1" in session.execute("recv hello0")

    def test_rollback_command(self, session):
        session.execute("launch hello0")
        session.execute("persist hello0")
        session.execute("attach hello0 nvme0")
        session.execute("checkpoint hello0")
        output = session.execute("rollback hello0")
        assert "rolled back" in output and "notified" in output

    def test_migrate_command(self, session):
        session.execute("launch hello0")
        session.execute("persist hello0")
        session.execute("attach hello0 nvme0")
        output = session.execute("migrate hello0")
        assert "migrated hello0 to aurora1" in output
        assert "downtime" in output
        # Gone locally, running remotely.
        assert "hello0" not in session.execute("ps")

    def test_unknown_command(self, session):
        with pytest.raises(SlsError):
            session.execute("frobnicate x")

    def test_comments_and_blanks_ignored(self, session):
        assert session.execute("# comment") == ""
        assert session.execute("   ") == ""


class TestEntryPoints:
    def test_demo_exercises_all_table1_commands(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        for verb in ("persist", "attach", "detach", "checkpoint",
                     "restore", "ps", "send", "recv"):
            assert f"sls> {verb}" in out or f" {verb} " in out

    def test_demo_script_covers_table1(self):
        for verb in ("persist", "attach", "detach", "checkpoint",
                     "restore", "ps", "send", "recv"):
            assert verb in DEMO_SCRIPT

    def test_run_lines_reports_failures(self, session, capsys):
        failures = run_lines(session, ["bogus command"], echo=False)
        assert failures == 1
        assert "error" in capsys.readouterr().err

    def test_script_mode(self, tmp_path, capsys):
        script = tmp_path / "cmds.sls"
        script.write_text("launch hello0\npersist hello0\nps\n")
        assert main(["script", str(script)]) == 0
        assert "hello0" in capsys.readouterr().out

    def test_script_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("launch hello0\nps\n"))
        assert main(["script", "-"]) == 0
        assert "launched hello0" in capsys.readouterr().out

    def test_shell_mode(self, capsys, monkeypatch):
        lines = iter(["launch hello0", "persist hello0", "ps"])

        def fake_input(prompt=""):
            try:
                return next(lines)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr("builtins.input", fake_input)
        assert main(["shell"]) == 0
        out = capsys.readouterr().out
        assert "launched hello0" in out
        assert "GROUP" in out

    def test_shell_reports_errors_and_continues(self, capsys, monkeypatch):
        lines = iter(["bogus", "launch hello0"])

        def fake_input(prompt=""):
            try:
                return next(lines)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr("builtins.input", fake_input)
        assert main(["shell"]) == 0
        captured = capsys.readouterr()
        assert "unknown command" in captured.err
        assert "launched hello0" in captured.out
