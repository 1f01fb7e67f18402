#!/usr/bin/env python3
"""Prints the region-round benchmark's deterministic outputs as a table.

Usage, from the root of a checkout:

    python3 tools/roundbench_fingerprints.py [--workloads steady,requests,sharded] \
        [--seeds 1,2,3,4] [--seconds 2]

Runs `roundbench/run.py --trace 0` once per (workload, seed) and prints one
line per run: workload, seed, the untraced pass's fingerprint (a hash of every
round's targets and each segment's final state), region_cost, gap_to_bound,
moves_per_round and in_use_moves_per_round. Every column is a function of the
workload and seed alone, so the table of a change that must not alter any
answer diffs empty against its parent's. Floats print with 17 significant
digits, so the diff is exact. Build chatter goes to stderr. Exits non-zero
when a run fails or its result is missing.
"""

import argparse
import json
import os
import re
import subprocess
import sys

COLUMNS = ["region_cost", "gap_to_bound", "moves_per_round", "in_use_moves_per_round"]
FINGERPRINT = re.compile(r"^# untraced: .*fingerprint=([0-9a-f]+)", re.MULTILINE)


def run_one(run_py, workload, seed, seconds):
    cmd = [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        raise RuntimeError("%s seed %d: run.py exited %d" % (workload, seed, run.returncode))
    fingerprint = FINGERPRINT.search(run.stdout)
    lines = run.stdout.strip().splitlines()
    if fingerprint is None or not lines:
        raise RuntimeError("%s seed %d: no fingerprint or result line" % (workload, seed))
    metrics = json.loads(lines[-1])["metrics"]
    values = ["%.17g" % metrics[name]["value"] for name in COLUMNS]
    return " ".join([workload, str(seed), fingerprint.group(1)] + values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="steady,requests,sharded")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run_py = os.path.join(root, "roundbench", "run.py")
    print("# workload seed fingerprint " + " ".join(COLUMNS))
    try:
        for workload in args.workloads.split(","):
            for seed in args.seeds.split(","):
                print(run_one(run_py, workload, int(seed), args.seconds), flush=True)
    except (RuntimeError, ValueError, KeyError) as err:
        print("roundbench_fingerprints: %s" % err, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
