#!/usr/bin/env python3
"""Builds and runs one uniprot_bench workload.

    python3 uniprot_bench/run.py --workload curate_large --seed 1 \
        --seconds 10 --trace 0

Configures and builds the driver in Release under .bench_build/ at the
repository root (an incremental no-op once built), runs it, and passes its
output through: progress on stderr, the seeded counters and the result JSON
as the last two stdout lines. Exits non-zero when the build, a run or an
output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "uniprot_bench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "uniprot_run")
BINARY = os.path.join(BUILD_DIR, "uniprot_bench")
WORKLOADS = ("curate_large", "review_durable", "bulk_ingest")


def build():
    """Configures (once) and builds the driver; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "uniprot_bench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run(workload, seed, seconds, trace, rounds=0):
    """Runs the driver once; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds (0: --seconds)")
    args = parser.parse_args()
    if not build():
        print("uniprot_bench: build failed", file=sys.stderr)
        return 1
    code, lines = run(args.workload, args.seed, args.seconds, args.trace,
                      args.rounds)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
