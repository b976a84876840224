#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload ingest|audit|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and compiles
perfbench/ (which builds the ledger libraries from src/) into
.bench_build/perfbench; later calls only rebuild what changed. The
benchmark binary runs with .bench_build/perfbench/run as its working
directory, so its unix socket and trace files stay inside the checkout.
Build output goes to stderr; the last line of stdout is the
benchmark's result JSON object.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ledger_bench")
RUN_DIR = os.path.join(BUILD, "run")
WORKLOADS = ("ingest", "audit", "mixed")
# A run is its set-ups (the audit preload takes seconds each), then one
# timed window plus warm-up, or two (untraced and traced) with --trace 1.
SETUP_ALLOWANCE_S = 100
WARMUP_S = 1


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ledger sources at %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "ledger_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("seed must be >= 0 and seconds in (0, 120]")

    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    timeout = (2 if args.trace else 1) * (args.seconds + WARMUP_S) \
        + SETUP_ALLOWANCE_S
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=RUN_DIR)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %.0f s" % timeout)
    sys.exit(code)


if __name__ == "__main__":
    main()
