#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly and prints, per metric,
the median and the interquartile spread as a share of the median.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--sets 1|2] [--workloads query,ingest,derive]

Each workload runs 10 times for BENCHMARK.json's run_seconds, each run on
a fresh seed (1, 2, ...). The spread of every end-to-end metric is checked
against its bound in BENCHMARK.json and flagged above a third of it. With
--sets 2 a second set of 10 runs on the next seeds follows, and each
metric's second median must lie within the bound of the first, on either
side. Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: output checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    ok = True
    seed = 1
    for workload in workloads:
        medians = []
        for set_index in range(args.sets):
            samples = {}
            for _ in range(RUNS):
                for name, value in run_once(workload, seed, seconds).items():
                    samples.setdefault(name, []).append(value)
                seed += 1
            print(f"\n{workload} (set {set_index + 1}, {RUNS} runs, "
                  f"{seconds}s each)")
            print(f"  {'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
            set_medians = {}
            for m in metrics:
                values = samples.get(m["name"])
                if not values:
                    print(f"  {m['name']:34} missing")
                    ok = False
                    continue
                median, share = spread(values)
                set_medians[m["name"]] = median
                flag = ""
                if share > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif share > m["bound"] / 3:
                    flag = "  above bound/3"
                print(f"  {m['name']:34} {median:14.6g} {share:11.4f} "
                      f"{m['bound']:>6}{flag}")
            medians.append(set_medians)
        if args.sets == 2:
            print("  second set against first:")
            for m in metrics:
                first = medians[0].get(m["name"])
                second = medians[1].get(m["name"])
                if first is None or second is None:
                    continue
                change = (second - first) / first if first else 0.0
                agree = abs(change) <= m["bound"]
                ok = ok and agree
                print(f"  {m['name']:34} {first:14.6g} -> {second:14.6g} "
                      f"({change:+.4f}) {'ok' if agree else 'OUTSIDE BOUND'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
