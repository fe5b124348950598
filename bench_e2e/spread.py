#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 bench_e2e/spread.py --workload meter_rle --runs 10 --seconds 10

For every metric it prints the median of the runs and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the bound BENCHMARK.json gives the metric. A benchmark is
steady when every spread but setup_s's is well inside its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':40s} {'median':>14s} {'iqr/median':>11s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:40s} {med:14.6g} {spread:11.4f} {bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
