#!/usr/bin/env python3
"""Build and run the DynamicC benchmark.

Usage (from the root of a repository checkout):

    python3 dcbench/run.py --workload paper-kmeans --seed 1 --seconds 30 --trace 0

Workloads: paper-kmeans, ingest-replicated, serve-tcp, or "all".
--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
The first run in a checkout configures and builds dcbench/ (the
library from src/ plus the dcbench binary) into .bench_build/dcbench; later
runs only re-check the build. Every metric is printed by name and unit;
the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build
fails or a correctness check fails.

    python3 dcbench/run.py --self-test

builds the benchmark and runs its own estimator tests.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dcbench")
WORK = os.path.join(ROOT, ".bench_build", "work")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "dynamicc.h")):
        log("dcbench: no library sources under src/; run from a checkout root")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("dcbench: build step failed: " + " ".join(cmd))
            return False
    return True


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 2
    if args.self_test:
        return subprocess.run(["ctest", "--test-dir", BUILD,
                               "--output-on-failure"]).returncode

    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "dcbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--commit", commit(),
           "--work-dir", WORK]
    # The binary's stdout and exit code are ours.
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
