#!/usr/bin/env python3
"""Steadiness study: runs the benchmark several times per workload, each
with another seed, and reports for every end-to-end metric the spread
between the first and third quartile as a share of the median, next to
the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1]

It prints a markdown table per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, elapsed = run_once(bench["command"], workload, seed,
                                       bench["run_seconds"])
            runs.append({"seed": seed, "wall_s": elapsed, "result": result})
            ok = result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={ok}",
                  file=sys.stderr)
        print(f"\n### {workload} ({args.runs} runs, seeds "
              f"{args.first_seed}-{args.first_seed + args.runs - 1})\n")
        print("| metric | median | q1 | q3 | spread | bound | spread < bound/3 |")
        print("|---|---|---|---|---|---|---|")
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            bound = bounds[metric]
            verdict = "yes" if s < bound / 3 else "NO"
            print(f"| {metric} | {med:.6g} | {q1:.6g} | {q3:.6g} | {s:.4f} | "
                  f"{bound} | {verdict} |")
        walls = [r["wall_s"] for r in runs]
        print(f"\nwall time per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")


if __name__ == "__main__":
    main()
