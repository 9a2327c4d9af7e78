#!/usr/bin/env python3
"""Builds and runs the end-to-end ThreadedExecutor benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload seq3_keyed_p1 --seed 412 \
        --seconds 12 --trace 0

The engine is compiled from ../src into .bench_build/perfbench (CMake,
Release); an up-to-date build is reused. The benchmark binary's standard
output is passed through; its last line is the JSON result. Build output
goes to .bench_build/perfbench/build.log and, on failure, to stderr, and the
script then exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
BUILD_JOBS = "4"


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_e2e",
         "-j", BUILD_JOBS],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                break
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-8000:])
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
