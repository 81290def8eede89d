#!/usr/bin/env python3
"""Runs one workload of the loop benchmark.

Builds the benchmark (and the Q library it links) from the source tree
with CMake into .bench_build/loopbench under the repository root, runs
the benchmark binary, and relays its output. The last line of standard
output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 loopbench/run.py --workload serve_feedback --seed 1 \
        --seconds 10 --trace 0 [--tiny]

Exits non-zero without a result line when the build fails, the run
fails, or the benchmark's correctness checks do not hold.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "loopbench")
BINARY = os.path.join(BUILD_DIR, "loopbench")
WORKLOADS = ("serve_feedback", "serve_catalog", "onboard_restart")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; build logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size, for the benchmark's own tests")
    args = parser.parse_args()

    if not build():
        print("loopbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("loopbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print("loopbench: run failed (exit %d)" % done.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("loopbench: no result line", file=sys.stderr)
        return 1
    if not result.get("correct"):
        sys.stderr.write(done.stdout)
        print("loopbench: correctness check failed", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
