#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload wire|refresh-1m|families \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
program's library from src/ plus the harness (perfbench/*.cc) into
.bench_build/perfbench; later runs only rebuild what changed. The harness
prints one JSON line; this script keeps the metrics BENCHMARK.json names for
the mode (end_to_end with --trace 0, per_layer with --trace 1), checks that
each is present and finite, and prints the result as its last line. It exits
non-zero, without a result, when the build fails, the harness fails or times
out, or a named metric is missing.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    t0 = time.monotonic()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    budget = RUN_LIMIT_S - (time.monotonic() - t0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if proc.returncode != 0:
        fail(f"harness exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        value = got.get("value") if got else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} missing or not finite")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = got
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
