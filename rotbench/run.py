#!/usr/bin/env python3
"""Builds the rotbench program from this checkout's sources and runs one workload.

    python3 rotbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The build tree and the run's scratch
files live under .bench_build/ at the root; build output goes to stderr, so
the last line of standard output is the program's JSON result. The exit
code is the program's: nonzero on a wrong answer, a counter mismatch, a
build failure, or missing sources.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "rotbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "rotbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("rotbench: rotind sources (src/) not found next to rotbench/")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "rotbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "rotbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"rotbench: build failed: {err}")
    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--workdir", os.path.join(BUILD_ROOT, "work-" + tag),
    ]
    if args.trace == "1":
        command += ["--spans", os.path.join(BUILD_ROOT, "spans-" + tag + ".tsv")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
