#!/usr/bin/env python3
"""Open-loop QUEST serving benchmark: build, run, relay the result.

Usage, from the repository root:

    python3 loadbench/run.py --workload oem-steady --seed 1 --seconds 25 --trace 0

Workloads: oem-steady, confirm-storm, cluster-scatter. The first run
configures and builds the benchmark and the repository libraries it links
(CMake, Release) into .bench_build/loadbench; later runs reuse that tree.
Build output goes to stderr. With --trace 1 the driver's
coordinated-omission test runs first. The benchmark's last stdout line is
the JSON result, and its exit status is passed on.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "loadbench")
BUILD = os.path.join(ROOT, ".bench_build", "loadbench")
WORKLOADS = ("oem-steady", "confirm-storm", "cluster-scatter")
BUILD_TIMEOUT_S = 840
TEST_TIMEOUT_S = 15
RUN_TIMEOUT_S = 160


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.SubprocessError) as error:
        print(f"loadbench: build failed: {error}", file=sys.stderr)
        return 1
    try:
        if args.trace:
            subprocess.run([os.path.join(BUILD, "open_loop_test")],
                           stdout=sys.stderr, check=True,
                           timeout=TEST_TIMEOUT_S)
        bench = subprocess.run(
            [os.path.join(BUILD, "quest_load"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as error:
        print(f"loadbench: {error}", file=sys.stderr)
        return 1
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
