"""Steadiness check: run one workload many times and report the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload multisite-sliding --runs 10 --sets 2

Each run is a fresh ``perfbench/run.py`` process with its own seed (set
``s`` uses seeds ``first_seed + s*runs ...``).  For every metric the command
prints the first set's median and quartiles (``statistics.quantiles(values,
n=4)``), each set's spread (interquartile distance over the median) against
the metric's bound in ``BENCHMARK.json``, and with two sets the shift of the
second median relative to the first, signed so that positive means worse.  It also prints
each set's failed-operation share, which must not differ between sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit("run failed (seed %d, exit %d):\n%s\n%s"
                         % (seed, completed.returncode, completed.stdout, completed.stderr))
    return json.loads(lines[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles and spread (interquartile distance over the median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else int(spec["run_seconds"])
    declared = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for index in range(args.sets):
        results = []
        for run in range(args.runs):
            seed = args.first_seed + index * args.runs + run
            result = run_once(args.workload, seed, seconds)
            results.append(result)
            print("set %d seed %d: correct=%s attempted=%d failed=%d"
                  % (index + 1, seed, result["correct"], result["attempted"], result["failed"]),
                  flush=True)
        sets.append(results)

    print("\n%-38s %14s %14s %14s %8s%s %8s%s" % (
        "metric", "median", "q1", "q3", "spread", " spread2" if args.sets == 2 else "", "bound",
        "  shift" if args.sets == 2 else ""))
    worst = 0.0
    for name in sets[0][0]["metrics"]:
        meta = declared.get(name, {})
        bound = meta.get("bound")
        summaries = [summarize([r["metrics"][name]["value"] for r in results]) for results in sets]
        median, q1, q3, spread = summaries[0]
        if bound and name != "setup_s":
            worst = max([worst] + [summary[3] / bound for summary in summaries])
        second = ""
        if args.sets == 2:
            shift = (summaries[1][0] - median) / abs(median) if median else 0.0
            if meta.get("better") == "higher":
                shift = -shift
            second = " %+7.3f" % shift
        print("%-38s %14.6g %14.6g %14.6g %8.3f%s %8s%s" % (
            name, median, q1, q3, spread, " %8.3f" % summaries[1][3] if args.sets == 2 else "",
            "-" if bound is None else "%.3f" % bound, second))
    for index, results in enumerate(sets):
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print("set %d: failed share %d/%d" % (index + 1, failed, attempted))
    print("largest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
