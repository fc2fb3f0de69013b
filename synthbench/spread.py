#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 synthbench/spread.py [--runs 10] [--seconds S] [--first-seed 1] \
        [--trace 0] [workload ...]

For every workload (by default those BENCHMARK.json lists) the benchmark
runs once per seed, seeds `first-seed .. first-seed + runs - 1`, for
`--seconds` (default: BENCHMARK.json's run_seconds). For each end-to-end
metric the script prints the median of the per-run values and the spread:
the distance between the first and third quartiles
(`statistics.quantiles(n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    worst = 0.0
    for name in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: output check failed")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print(f"{name}: {args.runs} runs")
        for metric, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            if bound is not None and metric != "setup_s":
                worst = max(worst, spread / bound)
            shown = f"bound {bound}" if bound is not None else ""
            print(f"  {metric:<28} median {med:<14.6g} spread {spread:.4f} {shown}")
            print("    values " + " ".join(f"{v:.6g}" for v in vs))
    if args.trace == 0:
        print(f"largest spread / bound (setup_s excepted): {worst:.3f}")


if __name__ == "__main__":
    main()
