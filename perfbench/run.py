#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark crate (a workspace
of its own under perfbench/, depending on the repository's crates by
path) into $CARGO_TARGET_DIR (default .bench_build), then runs the
workload in a process of its own. The last line of standard output is
the result object: {"correct", "attempted", "failed", "metrics"}.

Each workload process runs on one core (the last this process may use):
a hand-off between threads on different virtual CPUs waits for the
hypervisor to wake the other CPU, and that wait follows the load of the
shared host rather than the program.

--trace 0 runs the plain binary and reports end-to-end metrics.
--trace 1 runs the traced binary (counting allocator, timing probes)
once per workload, each in its own process, and reports every per-layer
metric; attempted/failed are those of the requested workload.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["live-publish", "live-churn", "sim-roaming"]
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("the repository's sources are not next to perfbench/; nothing to build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"), "--bins",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def run_child(binary, workload, seed, seconds):
    """Runs one workload; echoes its notes; returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build(target)
    release = os.path.join(target, "release")
    # Inherited by the workload process and every thread it starts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not args.trace:
        result = run_child(os.path.join(release, "perfbench"), args.workload, args.seed, args.seconds)
    else:
        # Per-layer metrics of every workload, each measured on its own
        # workload in its own process; the traced runs share the time.
        share = max(2.0, args.seconds / len(WORKLOADS))
        binary = os.path.join(release, "perfbench-traced")
        results = {w: run_child(binary, w, args.seed, share) for w in WORKLOADS}
        result = dict(results[args.workload])
        result["correct"] = all(r["correct"] for r in results.values())
        result["metrics"] = {k: v for r in results.values() for k, v in r["metrics"].items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
