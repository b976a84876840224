#!/usr/bin/env python3
"""Runs every workload briefly in both modes and checks the result line.

    python3 perfbench/tests/check_output.py [--seconds S]

For each workload and --trace 0/1 the benchmark must exit 0, and its last
stdout line must pass a strict JSON parser (no NaN or Infinity), carry
exactly the keys correct/attempted/failed/metrics, report correct == true,
and name exactly the metrics BENCHMARK.json lists for that mode, each with
the declared unit, a finite numeric value and a name made only of letters,
digits, '_', '.' and '-'. Exits non-zero on the first violation.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def reject_constant(token):
    raise ValueError("non-standard JSON constant " + token)


def check(workload, trace, seconds, spec):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    where = "%s --trace %d" % (workload, trace)
    assert proc.returncode == 0, "%s exited %d" % (where, proc.returncode)
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=reject_constant)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units), (
        where, sorted(set(result["metrics"]) ^ set(units)))
    for name, metric in result["metrics"].items():
        assert NAME.match(name), (where, name)
        assert set(metric) == {"value", "unit"}, (where, name)
        assert metric["unit"] == units[name], (where, name)
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            where, name)
        if not trace:
            assert value > 0, (where, name, value)
    print("ok  %-20s %3d metrics" % (where, len(result["metrics"])))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check(workload, trace, args.seconds, spec)


if __name__ == "__main__":
    main()
