#!/usr/bin/env python3
"""Builds and runs the veDB/AStore benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload tpcc|ebp-ops|ch-pushdown \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (and with it the libraries
under src/) into .bench_build/; later runs only rebuild what changed. The
benchmark binary's output is passed through, and its last line is checked
against BENCHMARK.json: one JSON object with "correct", "attempted",
"failed" and exactly the declared end-to-end metrics (--trace 0) or
per-layer metrics (--trace 1). Any build, run or format failure exits
non-zero without printing a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark.
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}, \
        [w["name"] for w in spec["workloads"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not JSON")
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result line does not have exactly the four keys")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("'%s' is not a whole number" % key)
    if result["attempted"] < 1:
        fail("no operation was attempted")
    want, _ = declared_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        entry = got[name]
        if entry.get("unit") != unit or \
                not isinstance(entry.get("value"), (int, float)):
            fail("metric %s is malformed: %r" % (name, entry))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json is missing at the repository root")
    _, workloads = declared_metrics(bool(args.trace))
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload, workloads))
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Three setups plus a window of about --seconds of wall time.
    timeout_s = 60 + 4 * args.seconds
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                             timeout=timeout_s, text=True)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % timeout_s)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("the benchmark exited with code %d" % run.returncode)
    check_result(lines[-1], bool(args.trace))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
