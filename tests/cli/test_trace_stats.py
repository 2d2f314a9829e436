"""``sls trace`` and ``sls stats`` on the demo, through ``cli.main``."""

import re

from repro.cli.main import main

_UNIT_NS = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
_QUANTILES = re.compile(
    r"p50=([\d.]+) (\w+) p99=([\d.]+) (\w+) max=([\d.]+) (\w+)"
)


def test_trace_prints_a_checkpoint_root_with_its_stop_child(capsys):
    assert main(["trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    roots = [i for i, line in enumerate(lines) if line.startswith("sls.checkpoint ")]
    assert roots
    after = lines[roots[0] + 1:]
    assert any("checkpoint.stop " in line for line in after[:6])


def test_stats_histograms_never_exceed_their_max(capsys):
    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    found = _QUANTILES.findall(out)
    assert found
    for p50, u50, p99, u99, top, utop in found:
        p50, p99, top = (float(v) * _UNIT_NS[u] for v, u in
                         ((p50, u50), (p99, u99), (top, utop)))
        assert p50 <= p99 <= top
