#!/usr/bin/env python3
"""Measure the run-to-run spread of the edge benchmark's metrics.

Run from the root of the repository:

    python3 edgebench/spread.py --runs 10 --seconds 20
    python3 edgebench/spread.py --workloads obr_cascade --runs 5 --first-seed 100

For each workload it runs the benchmark once per seed (first-seed,
first-seed + 1, ...), each in its own process, and prints for every
metric the median, the quartiles (`statistics.quantiles(values, n=4)`)
and the spread: (Q3 - Q1) / median. With BENCHMARK.json present, each
end-to-end spread is compared with a third of the metric's bound. The
exit code is 1 if any run failed or reported `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def run_once(exe, workload, seed, seconds):
    args = [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=bench.RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()

    exe = bench.build()
    limits = bounds()
    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(exe, workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        if bad:
            ok = False
        print(f"{workload}: {len(results)} runs, {len(bad)} incorrect")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            note = ""
            if name in limits:
                third = limits[name] / 3
                note = f"bound/3={third:.4f} {'ok' if spread <= third else 'WIDE'}"
            print(f"  {name:<26} median={med:<14.6g} q1={q1:<14.6g} q3={q3:<14.6g} "
                  f"spread={spread:.4f} {note}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in values))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
