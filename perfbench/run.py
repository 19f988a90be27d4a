#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/,
then every run executes the helper tests and one workload. The last line
of standard output is the result JSON; build and test logs go to standard
error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
OUT_DIR = os.path.join(BUILD_DIR, "out")
WORKLOADS = ("paper_campaign", "wide_coalition", "large_market",
             "service_closed_loop")
# A run must end within 180 s; the first run of a checkout also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout, cwd=None):
    """Runs cmd with its output on stderr; fails the run on error."""
    try:
        done = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    start = time.monotonic()
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        call(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    call(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
          "perfbench_helpers_test", "-j", jobs],
         BUILD_TIMEOUT_S - (time.monotonic() - start))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    start = time.monotonic()
    call([os.path.join(CMAKE_DIR, "perfbench_helpers_test")], 120,
         cwd=CMAKE_DIR)

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(CMAKE_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S - (time.monotonic() - start))
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode} and no result")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    # Exit code 1: the run finished but an output check failed.
    sys.exit(0 if result.get("correct") else 1)


if __name__ == "__main__":
    main()
