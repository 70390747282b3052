#!/usr/bin/env python3
"""Builds ncbench from the checkout it sits in, then runs one workload.

    python3 ncbench/run.py --workload stream|wave|lossy --seed N \
        --seconds S --trace 0|1

The build (CMake, RelWithDebInfo, into .bench_build/ncbench at the checkout
root) compiles the ncast libraries from src/ and the driver in ncbench/src;
later runs only rebuild what changed. Build output goes to stderr. The
driver's stdout is passed through, so its last line is the result object:
{"correct", "attempted", "failed", "metrics"}. Any build or run failure
exits nonzero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ncbench")
BINARY = os.path.join(BUILD, "ncbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", BUILD_JOBS], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["stream", "wave", "lossy"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"run.py: ncbench did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"run.py: ncbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
