#!/usr/bin/env python3
"""Builds and runs the region-round benchmark (see README.md).

Usage, from the root of a checkout:

    python3 roundbench/run.py --workload steady|requests|sharded \
        --seed N --seconds S --trace 0|1

Configures and builds roundbench/ (which compiles ../src) as a Release CMake
project under $CARGO_TARGET_DIR, default .bench_build, then runs round_bench
and forwards its output. The last stdout line is the result JSON. Exits
non-zero, without a result, when the build fails or the run times out.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["steady", "requests", "sharded"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--break", dest="break_check", choices=["persist", "recovery", "cold"],
                        help="force one correctness check to fail (demonstrates the gate)")
    args = parser.parse_args()

    source = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary_dir = os.path.join(build, "roundbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", source, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", binary_dir, "--target", "round_bench", "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("roundbench: build failed", file=sys.stderr)
            return 2

    state_dir = os.path.join(build, "state-%d" % os.getpid())
    cmd = [os.path.join(binary_dir, "round_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--state-dir", state_dir]
    if args.break_check:
        cmd += ["--break", args.break_check]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("roundbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
