#!/usr/bin/env python3
"""End-to-end benchmark of the Aurora SLS reproduction, on two clocks.

One workload, the way the driver calls it (the last stdout line is the
result object ``BENCHMARK.json`` describes)::

    python3 benchmarks/e2e/run.py --workload ckpt_stream --seed 1 \\
        --seconds 10 --trace 0

All five workloads, each in a fresh single-threaded subprocess, one
after the other, with the per-module traced breakdown::

    python3 benchmarks/e2e/run.py --seed 1 --traced --json out.json

See ``benchmarks/e2e/README.md`` for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from report import WORKLOAD_NAMES  # noqa: E402 (needs the path above)

RESULT_MARK = "E2E-RESULT "


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process "
                             "(default: all five, a subprocess each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="generator seed (same seed, same inputs)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="take as many passes as fit this much host time "
                             "at the nominal pass cost (the count is fixed "
                             "before anything is measured)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fewest untraced passes to take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: every other pass runs with the span wrappers "
                             "installed and the per-layer metrics are reported")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--tolerate-postreboot-restore", action="store_true",
                        help="count pages the post-reboot restore gets wrong in "
                             "oracle.postreboot_pages_wrong only, not in "
                             "ops_failed (see README: known at the seed commit)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (harness tests; numbers mean nothing)")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full result tree here at exit")
    parser.add_argument("--spans", action="store_true",
                        help="with --workload, --trace 1 and --json: include the "
                             "raw spans of one traced pass in OUT")
    args = parser.parse_args(argv)
    if args.spans and not (args.workload and args.trace and args.json):
        parser.error("--spans needs --workload, --trace 1 and --json")
    return args


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload in this process."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"e2e: no program to measure: {SRC}/repro is missing\n")
        return 2
    import harness

    result = harness.measure(
        args.workload, args.seed, seconds=args.seconds, repeats=args.repeats,
        traced=bool(args.trace), quick=args.quick,
        tolerate=args.tolerate_postreboot_restore, keep_spans=args.spans,
    )
    harness.render(result)
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
    result.pop("spans", None)
    print(RESULT_MARK + json.dumps(result, sort_keys=True))
    print(json.dumps(harness.driver_line(result, bool(args.trace))))
    # Non-zero only for a harness error; failed operations are a result.
    return 3 if result["harness_errors"] else 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, strictly one after the other, a process each."""
    results: dict[str, dict] = {}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--repeats", str(args.repeats), "--trace", str(args.trace),
        ] + (["--quick"] if args.quick else []) + (
            ["--tolerate-postreboot-restore"]
            if args.tolerate_postreboot_restore else []
        )
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        status = status or done.returncode
        for line in done.stdout.splitlines()[:-1]:
            if line.startswith(RESULT_MARK):
                results[name] = json.loads(line[len(RESULT_MARK):])
            else:
                print(line)
    if len(results) != len(WORKLOAD_NAMES):
        return status or 3  # a workload gave no result: nothing to sum up
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["ops_attempted"] for r in results.values()),
        "failed": sum(r["ops_failed"] for r in results.values()),
        "sim_digest": {name: r["sim_digest"] for name, r in results.items()},
    }
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "claim": None, "workloads": results},
            indent=2, sort_keys=True,
        ) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
