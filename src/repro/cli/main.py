"""The ``sls`` command-line interface (Table 1 of the paper).

=================  ===============================================
``sls persist``     Add an application to a persistence group
``sls attach``      Attach a persistence group to a backend
``sls detach``      Detach a persistence group from a backend
``sls checkpoint``  Checkpoint an application
``sls restore``     Restore an application from an image
``sls ps``          List applications in Aurora
``sls send``        Send an application to a remote
``sls recv``        Receive an application from a remote
=================  ===============================================

Because the kernel here is simulated, commands run inside a *session*
(one booted machine + a remote peer).  Three entry modes:

- ``sls demo`` — a canned scenario exercising every Table 1 command;
- ``sls script FILE`` — run commands from a file (``-`` for stdin);
- ``sls shell`` — interactive prompt.

Two observability modes (see OBSERVABILITY.md) run a target with
tracing enabled and report what every kernel it booted recorded:

- ``sls trace [FILE]`` — span trees + Table 3 reconciliation;
- ``sls stats [FILE]`` — the counter/gauge/histogram registries.

``sls crashtest`` runs the crash-consistency sweep (see FAULTS.md):
one run of a checkpoint workload, then every distinct media state a
power cut could leave, each recovered and checked by the
prefix-consistency/leak/restore/fsck oracles.

``sls bench`` runs the pinned virtual-clock benchmark suite (see
BENCHMARKS.md): deterministic, byte-stable JSON that CI diffs against
``benchmarks/results/baseline.json`` to gate performance regressions.

``sls fleet`` runs the fleet-scale serverless tenancy scenario (see
DESIGN.md): thousands of functions deployed on one store, a seeded
invocation storm of lazy-restore warm starts, and the noisy-neighbor
QoS comparison (unthrottled vs per-tenant scheduler budgets).

``sls lint`` runs the AST-based invariant checker (see ANALYSIS.md):
seven rules over the source tree, three of them proved on the
whole-program effect call graph, with no waivers.  CI runs it as a
blocking job.

``sls fsck`` and ``sls scrub`` exercise the recovery tooling (see
RECOVERY.md) against a deterministic demo store: ``--inject`` plants
one named corruption, fsck detects/classifies it (``--repair`` fixes
what is safely repairable), and scrub verifies every reachable extent
checksum over idle device queues.

``FILE`` may be a Python program (run like ``python FILE``) or an sls
command script; with no file the canned demo is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import sys

import repro.obs as obs
from repro.cli.session import SlsSession
from repro.errors import AuroraError
from repro.obs import names as obs_names

DEMO_SCRIPT = """\
# Boot demo applications and exercise all eight Table 1 commands.
launch redis0
launch hello0
persist redis0
persist hello0
attach redis0 nvme0
attach redis0 mem0
attach hello0 nvme0
checkpoint redis0
checkpoint redis0
checkpoint hello0
ps
restore redis0
send hello0
recv hello0
detach redis0 mem0
ps
"""


def run_lines(session: SlsSession, lines, echo: bool = True) -> int:
    failures = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if echo:
            print(f"sls> {line}")
        try:
            output = session.execute(line)
        except AuroraError as exc:
            failures += 1
            print(f"error: {exc}", file=sys.stderr)
            continue
        if output:
            print(output)
    return failures


def _run_traced(file) -> object:
    """Run the trace/stats target with tracing default-enabled.

    Returns an object that keeps the program's kernels alive (the
    observer registry only holds weak references), so the caller can
    still read their tracers and registries afterwards.
    """
    obs.set_default_enabled(True)
    try:
        if file is None:
            session = SlsSession()
            run_lines(session, DEMO_SCRIPT.splitlines(), echo=False)
            return session
        if not os.path.exists(file):
            raise SystemExit(f"sls: no such file: {file}")
        if file.endswith(".py"):
            try:
                # The program's module globals hold its kernels.
                return runpy.run_path(file, run_name="__main__")
            except SystemExit:
                return None
        session = SlsSession()
        with open(file) as handle:
            run_lines(session, handle.read().splitlines(), echo=False)
        return session
    finally:
        obs.set_default_enabled(False)


def cmd_trace(args) -> int:
    keep = _run_traced(args.file)
    observers = obs.all_observers()
    traced = [o for o in observers if o.tracer.roots() or o.tracer.events]
    if not traced:
        print("no spans recorded (did the target boot a kernel?)")
        return 1
    for kobs in traced:
        roots = kobs.tracer.roots()
        print(f"== kernel {kobs.label or '?'} ==")
        print(obs.render_span_tree(roots, limit=args.limit))
        recon = [
            line
            for root in roots
            for span in root.walk()  # periodic ticks nest under barriers
            if span.name == obs_names.SPAN_CHECKPOINT
            if (line := obs.checkpoint_reconciliation(span)) is not None
        ]
        for line in recon:
            print(line)
    if args.json:
        with open(args.json, "w") as handle:
            total = 0
            for kobs in traced:
                for record in obs.trace_records(kobs.tracer):
                    record["kernel"] = kobs.label
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                    total += 1
        print(f"wrote {total} records to {args.json}")
    del keep
    return 0


def cmd_crashtest(args) -> int:
    from repro.fault.crashtest import EXPECTED_CRASH_POINTS, run_sweep

    expect = args.expect_points
    if expect == "pinned":
        # the single source of truth CI pins against — the sweep itself
        # fails loudly (width_drift) if the count disagrees
        expect = EXPECTED_CRASH_POINTS
    elif expect is not None:
        expect = int(expect, 0)
    report = run_sweep()
    print(report.summary())
    if expect is not None and len(report.points) != expect:
        print(
            f"crash-point count {len(report.points)} != expected "
            f"{expect}: the workload's trace reaches a different number "
            f"of media states — re-count the sweep and update the CI pin",
            file=sys.stderr,
        )
        return 1
    if args.json:
        with open(args.json, "w") as handle:
            for point in report.points:
                handle.write(json.dumps({
                    "at_ns": point.at_ns,
                    "durable": point.durable,
                    "torn": point.torn,
                    "generation": point.generation,
                    "snapshots_recovered": point.snapshots_recovered,
                    "fsck_findings": point.fsck_findings,
                    "fsck_repaired": point.fsck_repaired,
                    "failures": point.failures,
                }, sort_keys=True) + "\n")
        print(f"wrote {len(report.points)} crash points to {args.json}")
    if args.fsck_report:
        with open(args.fsck_report, "w") as handle:
            for point in report.points:
                if point.fsck_report is None:
                    continue
                handle.write(json.dumps({
                    "at_ns": point.at_ns,
                    "fsck": point.fsck_report,
                }, sort_keys=True) + "\n")
        print(f"wrote fsck reports to {args.fsck_report}")
    return 1 if report.failures else 0


def cmd_fsck(args) -> int:
    from repro.cli.recovery import build_demo_store, inject
    from repro.objstore.fsck import Fsck

    device, store, _obs = build_demo_store()
    if args.inject:
        print(f"injected: {inject(device, store, args.inject)}")
    checker = Fsck(store, repair=args.repair)
    report = checker.run()
    print(report.summary())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote fsck report to {args.json}")
    if args.repair and report.findings and report.repaired_all:
        second = Fsck(store, repair=False).run()
        verdict = "clean" if second.clean else "STILL DAMAGED"
        print(f"re-check after repair: {verdict}")
        return 0 if second.clean else 1
    return 0 if report.clean or (args.repair and report.repaired_all) else 1


def cmd_scrub(args) -> int:
    from repro.cli.recovery import build_demo_store, inject
    from repro.objstore.scrub import Scrubber

    device, store, _obs = build_demo_store()
    if args.inject:
        print(f"injected: {inject(device, store, args.inject)}")
    scrubber = Scrubber(store, batch_extents=args.batch)
    scrubber.run()
    print(scrubber.summary())
    if args.json:
        with open(args.json, "w") as handle:
            payload = {
                "extents_total": scrubber.stats.extents_total,
                "extents_verified": scrubber.stats.extents_verified,
                "bytes_verified": scrubber.stats.bytes_verified,
                "errors": scrubber.stats.errors,
                "steps": scrubber.stats.steps,
                "findings": [f.to_dict() for f in scrubber.findings],
            }
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        print(f"wrote scrub report to {args.json}")
    if scrubber.stats.errors:
        print("scrub found damage — run `sls fsck --repair` (RECOVERY.md)")
    return 1 if scrubber.stats.errors else 0


def cmd_bench(args) -> int:
    from repro.cli.bench import compare, run_suite, to_json

    if args.only and args.compare:
        print("--only runs a partial suite; it cannot be compared against "
              "the full-suite baseline (drop one of --only/--compare)",
              file=sys.stderr)
        return 2
    try:
        results = run_suite(only=args.only)
    except KeyError as exc:
        print(f"sls bench: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.fault_log:
        if results.fault_log is None:
            print("--fault-log set but the restorecache scenario did not run",
                  file=sys.stderr)
            return 2
        with open(args.fault_log, "w") as handle:
            handle.write(results.fault_log.to_jsonl())
        print(f"wrote recorded fault order to {args.fault_log}")
    rendered = to_json(results)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(rendered)
        print(f"wrote benchmark results to {args.json}")
    else:
        print(rendered, end="")
    if args.compare:
        with open(args.compare) as handle:
            baseline = json.load(handle)
        regressions = compare(results, baseline, tolerance=args.tolerance)
        if regressions:
            print(f"REGRESSIONS vs {args.compare} "
                  f"(tolerance {args.tolerance:.0%}):", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.compare} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


def cmd_fleet(args) -> int:
    from repro.cli.fleet import render_fleet, run_fleet

    report = run_fleet(args.functions, invocations=args.invocations)
    print(render_fleet(report))
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        print(f"wrote fleet report to {args.json}")
    protected = report["noisy_neighbor"]["qos"]
    return 1 if protected["steady_slo_violated"] else 0


def cmd_stats(args) -> int:
    keep = _run_traced(args.file)
    observers = obs.all_observers()
    shown = 0
    for kobs in observers:
        if not len(kobs.registry):
            continue
        shown += 1
        print(f"== kernel {kobs.label or '?'} ==")
        print(obs.render_registry(kobs.registry))
        utilization = obs.render_device_utilization(kobs.registry)
        if utilization is not None:
            print("-- device utilization --")
            print(utilization)
        encoding = obs.render_store_encoding(kobs.registry)
        if encoding is not None:
            print("-- store encoding --")
            print(encoding)
        scrub = obs.render_scrub_progress(kobs.registry)
        if scrub is not None:
            print("-- scrub progress --")
            print(scrub)
        pagecache = obs.render_pagecache(kobs.registry)
        if pagecache is not None:
            print("-- page cache --")
            print(pagecache)
    if not shown:
        print("no instruments registered (did the target boot a kernel?)")
        return 1
    del keep
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sls",
        description="Aurora single level store CLI (simulated machine)",
    )
    sub = parser.add_subparsers(dest="mode")
    sub.add_parser("demo", help="run the canned end-to-end demo")
    script = sub.add_parser("script", help="run commands from a file")
    script.add_argument("file", help="command file, or - for stdin")
    sub.add_parser("shell", help="interactive prompt")
    trace = sub.add_parser(
        "trace", help="run a program with tracing on; print span trees"
    )
    trace.add_argument("file", nargs="?", default=None,
                       help="python program or sls script (default: demo)")
    trace.add_argument("--json", metavar="PATH", default=None,
                       help="also export the trace as JSON lines")
    trace.add_argument("--limit", type=int, default=12,
                       help="max root spans to print per kernel")
    stats = sub.add_parser(
        "stats", help="run a program with tracing on; print metric registries"
    )
    stats.add_argument("file", nargs="?", default=None,
                       help="python program or sls script (default: demo)")
    crash = sub.add_parser(
        "crashtest",
        help="check recovery from every media state a power cut could "
             "leave during a checkpoint workload",
    )
    crash.add_argument("--json", metavar="PATH", default=None,
                       help="also export crash points as JSON lines")
    crash.add_argument("--expect-points", default=None, metavar="N|pinned",
                       help="fail unless the sweep checks exactly this many "
                            "distinct media states; 'pinned' uses the in-tree "
                            "EXPECTED_CRASH_POINTS constant (the CI pin)")
    crash.add_argument("--fsck-report", metavar="PATH", default=None,
                       help="export each crash point's post-recovery fsck "
                            "report as JSON lines")
    bench = sub.add_parser(
        "bench",
        help="run the pinned virtual-clock benchmark suite (deterministic)",
    )
    bench.add_argument("--json", metavar="PATH", default=None,
                       help="write results to PATH instead of stdout")
    bench.add_argument("--compare", metavar="BASELINE", default=None,
                       help="diff against a baseline JSON; exit 1 on regression")
    bench.add_argument("--tolerance", type=float, default=0.05,
                       help="relative slack for the comparison (default 0.05)")
    bench.add_argument("--only", metavar="SCENARIO", default=None,
                       help="run a single scenario's cell grid "
                            "(local iteration; full suite is the CI default)")
    bench.add_argument("--fault-log", metavar="PATH", default=None,
                       help="write the restorecache scenario's recorded "
                            "fault order (JSON lines) to PATH")
    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale serverless tenancy scenario (storm + QoS demo)",
    )
    fleet.add_argument("--functions", type=int, default=100,
                       help="functions to deploy on one store (default 100)")
    fleet.add_argument("--invocations", type=int, default=200,
                       help="storm arrivals to drive (default 200)")
    fleet.add_argument("--json", metavar="PATH", default=None,
                       help="write the full fleet report as JSON")
    from repro.cli.recovery import INJECTIONS

    fsck = sub.add_parser(
        "fsck",
        help="offline check (and optionally repair) a demo object store",
    )
    fsck.add_argument("--inject", choices=INJECTIONS, default=None,
                      help="plant one named corruption before checking")
    fsck.add_argument("--repair", action="store_true",
                      help="repair what is safely repairable, then re-check")
    fsck.add_argument("--json", metavar="PATH", default=None,
                      help="write the structured FsckReport as JSON")
    scrub = sub.add_parser(
        "scrub",
        help="online checksum scrub of a demo store over idle queues",
    )
    scrub.add_argument("--inject", choices=INJECTIONS, default=None,
                       help="plant one named corruption before scrubbing")
    scrub.add_argument("--batch", type=int, default=16,
                       help="extents verified per scrub step (default 16)")
    scrub.add_argument("--json", metavar="PATH", default=None,
                       help="write the scrub stats and findings as JSON")
    from repro.analysis.cli import add_lint_parser

    add_lint_parser(sub)
    args = parser.parse_args(argv)

    if args.mode == "lint":
        from repro.analysis.cli import cmd_lint

        return cmd_lint(args)
    if args.mode == "trace":
        return cmd_trace(args)
    if args.mode == "stats":
        return cmd_stats(args)
    if args.mode == "crashtest":
        return cmd_crashtest(args)
    if args.mode == "bench":
        return cmd_bench(args)
    if args.mode == "fleet":
        return cmd_fleet(args)
    if args.mode == "fsck":
        return cmd_fsck(args)
    if args.mode == "scrub":
        return cmd_scrub(args)

    session = SlsSession()
    if args.mode in (None, "demo"):
        return 1 if run_lines(session, DEMO_SCRIPT.splitlines()) else 0
    if args.mode == "script":
        if args.file == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(args.file) as handle:
                lines = handle.read().splitlines()
        return 1 if run_lines(session, lines) else 0
    if args.mode == "shell":
        print("aurora sls shell — commands: launch persist attach detach"
              " checkpoint restore ps send recv (ctrl-d to exit)")
        while True:
            try:
                line = input("sls> ")
            except EOFError:
                print()
                return 0
            run_lines(session, [line], echo=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
