#!/usr/bin/env python3
"""Does the benchmark agree with itself?

Measures every workload twice at one seed — the second time in a
process whose id counters and allocator have a different history — and
once at a second seed, then checks:

* ``sim_digest`` and every sim-clock metric are byte-identical between
  the two sets (and between the passes inside each, which the harness
  itself asserts);
* every host-clock metric of the second set is within its bound of the
  first, printing the observed difference next to the bound.

Failed operations do not fail the selfcheck: they are a result, and the
record keeps them (``ckpt_stream`` and ``crash_recover`` fail their
post-reboot restore oracle at the seed commit, see the README).

The three result sets are written to ``--out`` (default
``benchmarks/e2e/results/selfcheck.json``) so a later claim can be
checked against a seed that was not used while developing it.

    python3 benchmarks/e2e/selfcheck.py [--seconds 10] [--seeds 1 2]
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

from report import END_TO_END, WORKLOAD_NAMES  # noqa: E402 (needs the path above)
from run import RESULT_MARK  # noqa: E402

KEEP = ("metrics", "sim_digest", "ops_attempted", "ops_failed", "counts",
        "host_samples", "passes", "scale", "correct", "errors",
        "harness_errors")


def churn() -> None:
    """Give this process a different id and allocation history: build
    and drop a few worlds outside ``hermetic_ids`` and a couple of MiB
    of buffers (small and dropped: ``ru_maxrss`` is a lifetime maximum,
    and must stay the workload's, not the churn's)."""
    from repro.core.orchestrator import SLS
    from repro.posix.kernel import Kernel
    from repro.posix.syscalls import Syscalls

    for index in range(7):
        kernel = Kernel(hostname=f"churn-{index}")
        SLS(kernel)
        proc = kernel.spawn("churn")
        Syscalls(kernel, proc).mmap(1 << 20, name="churn")
        kernel.create_container(f"churn-{index}")
    buffers = [bytearray(4096) for _ in range(512)]
    del buffers


def child(name: str, seed: int, seconds: float, churned: bool) -> int:
    import harness

    if churned:
        churn()
    result = harness.measure(name, seed, seconds=seconds)
    print(RESULT_MARK + json.dumps({key: result[key] for key in KEEP}))
    return 0


def measure_set(seed: int, seconds: float, churned: bool) -> dict:
    """Every workload, one fresh process each, strictly sequential."""
    out = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "selfcheck.py"), "--child", name,
             "--seeds", str(seed), "--seconds", str(seconds)]
            + (["--churned"] if churned else []),
            stdout=subprocess.PIPE, text=True, check=True,
        )
        line = next(l for l in done.stdout.splitlines()
                    if l.startswith(RESULT_MARK))
        out[name] = json.loads(line[len(RESULT_MARK):])
        print(f"   measured {name} seed={seed}"
              f"{' (churned process)' if churned else ''}", flush=True)
    return out


def compare(first: dict, second: dict) -> list[str]:
    problems = []
    for name in first:
        a, b = first[name], second[name]
        print(f"== {name}  ops_failed {a['ops_failed']} of {a['ops_attempted']}")
        same = a["sim_digest"] == b["sim_digest"]
        print(f"   sim_digest {'identical' if same else 'DIFFERS'}  "
              f"{a['sim_digest'][:16]}")
        if not same:
            problems.append(f"{name}: sim_digest differs between sets")
        if set(a["metrics"]) != set(b["metrics"]):
            problems.append(f"{name}: the sets report different metrics")
        for metric, entry in a["metrics"].items():
            other = b["metrics"].get(metric, entry)
            bound = END_TO_END.get(metric, (None, None, None))[2]
            limit = f"(bound {bound * 100:.0f}%)" if bound else "(detail)"
            if entry["clock"] == "sim":
                # deterministic: any difference at all is a failure
                same = other["value"] == entry["value"]
                print(f"   {metric:<20} {entry['value']:>12} "
                      f"{'identical' if same else 'DIFFERS'} {limit}")
                if not same:
                    problems.append(f"{name}: {metric} differs between sets")
                continue
            delta = abs(other["value"] - entry["value"]) / entry["value"]
            samples = a["host_samples"].get(metric, [])
            within = (f", passes {min(samples):.4f}..{max(samples):.4f}"
                      if samples else "")
            print(f"   {metric:<20} {entry['value']:>12.4f} vs "
                  f"{other['value']:>10.4f}  differs {delta * 100:5.2f}% "
                  f"{limit} {'ok' if delta <= bound else 'OUTSIDE'}{within}")
            if delta > bound:
                problems.append(
                    f"{name}: {metric} differs {delta * 100:.1f}% between "
                    f"sets (bound {bound * 100:.0f}%)"
                )
        for which in (a, b):
            problems += [f"{name}: {e}" for e in which["harness_errors"]]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="as run.py: fixes the pass count (default: what "
                             "BENCHMARK.json's run_seconds gives the driver)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--out", default=str(HERE / "results" / "selfcheck.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--churned", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child, args.seeds[0], args.seconds, args.churned)

    seed, *others = args.seeds
    first = measure_set(seed, args.seconds, churned=False)
    second = measure_set(seed, args.seconds, churned=True)
    record = {f"seed{seed}": first, f"seed{seed}_churned": second}
    for other in others:
        record[f"seed{other}"] = measure_set(other, args.seconds, churned=False)
    problems = compare(first, second)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}")
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
