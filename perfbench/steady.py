#!/usr/bin/env python3
"""Runs one workload k times with different seeds and reports steadiness.

    python3 perfbench/steady.py --workload live-churn --runs 10 [--first-seed 1]

For every end-to-end metric it prints the median, the interquartile range
as a share of the median (statistics.quantiles(values, n=4)), the bound
from BENCHMARK.json and whether the spread is within a third of it; and
the share of failed operations of each run.
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
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT\n{out.stdout}")
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        row = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} {row}",
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "WIDE")
        print(f"  {name:14} median {med:12.6g}  spread {spread:6.1%}  bound {bound:.0%}  {verdict}")
    distinct = sorted(set(shares))
    print(f"  failed share per run: {'identical' if len(distinct) == 1 else 'DIFFERS'} {distinct}")


if __name__ == "__main__":
    main()
