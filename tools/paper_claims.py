#!/usr/bin/env python3
"""Check the paper's shape claims against one session's bench artifacts.

Reads the schema-2 `--json` artifacts of four figure benches from one
directory and asserts each claim as a ratio between rows of the same run,
so a slower or faster host moves no verdict:

  BENCH_dasein.json        Fig 7: when TSA > TL-1 > TL-10; what grows with
                           payload; who roughly linear in signers
  BENCH_capabilities.json  Table I: every live probe passes
  BENCH_qldb_table2.json   Table II: LedgerDB faster on verify and on both
                           lineage rows; the lineage speedup grows from 5
                           to 100 versions
  BENCH_applications.json  Fig 10b: LedgerDB below Fabric at every volume

Usage:
  for b in dasein capabilities qldb_table2 applications; do
    ./build/bench/bench_$b --json out/BENCH_$b.json
  done
  tools/paper_claims.py --dir out/

Without --dir it reads the current directory; from the repo root, that is
the artifacts EXPERIMENTS.md's tables were regenerated from.

Prints one line per claim and exits 1 if any claim fails or an artifact
or row is missing. Stdlib only.
"""

import argparse
import json
import os
import sys

BENCHES = ("dasein", "capabilities", "qldb_table2", "applications")

# Per-signer who cost may vary by at most this factor across signer counts
# and still count as linear.
WHO_LINEARITY_SLACK = 2.0


def load_rows(path):
    """Maps row name -> row dict for one schema-2 artifact."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    schema = data.get("meta", {}).get("schema")
    if schema != 2:
        raise ValueError(f"{path}: unknown schema {schema!r}")
    return {row["name"]: row for row in data.get("results", [])}


def us(rows, name):
    """The row's per-operation latency in microseconds (its p50)."""
    return rows[name]["p50_us"]


def fig7(rows):
    when = [us(rows, f"when/{c}") for c in ("TSA", "TL-1", "TL-10")]
    yield ("Fig 7 when: TSA > TL-1 > TL-10",
           when[0] > when[1] > when[2],
           f"{when[0]:.1f} / {when[1]:.1f} / {when[2]:.1f} us")
    sizes = ("256B", "4KB", "64KB", "256KB")
    what = [us(rows, f"what/{s}") for s in sizes]
    yield ("Fig 7 what: grows with payload",
           all(a < b for a, b in zip(what, what[1:])),
           " < ".join(f"{v:.1f}" for v in what) + " us")
    signers = (1, 3, 5, 7)
    per_signer = [us(rows, f"who/sig-{n}") / n for n in signers]
    spread = max(per_signer) / min(per_signer) if min(per_signer) > 0 else 0
    yield ("Fig 7 who: roughly linear in signers",
           0 < spread <= WHO_LINEARITY_SLACK,
           f"per-signer {' / '.join(f'{v:.1f}' for v in per_signer)} us, "
           f"max/min {spread:.2f} (<= {WHO_LINEARITY_SLACK})")


def table1(rows):
    probes = {n: r for n, r in rows.items() if n.startswith("probe/")}
    failed = [n for n, r in probes.items() if r["ops_per_sec"] != 1.0]
    yield ("Table I: every live probe passes",
           bool(probes) and not failed,
           f"{len(probes) - len(failed)}/{len(probes)} pass"
           + (f"; failed: {', '.join(failed)}" if failed else ""))


def table2(rows):
    def speedup(op):
        return us(rows, f"qldb/{op}") / us(rows, f"ledgerdb/{op}")

    for op in ("Notarization Verify", "Lineage Verify (5 versions)",
               "Lineage Verify (100 versions)"):
        s = speedup(op)
        yield (f"Table II: LedgerDB faster on {op}", s > 1.0,
               f"speedup {s:.0f}x")
    s5 = speedup("Lineage Verify (5 versions)")
    s100 = speedup("Lineage Verify (100 versions)")
    yield ("Table II: lineage speedup grows from 5 to 100 versions",
           s100 > s5, f"{s5:.0f}x -> {s100:.0f}x")


def fig10b(rows):
    prefix = "notarize_verify/ledgerdb/"
    volumes = [n[len(prefix):] for n in rows if n.startswith(prefix)]
    ratios = [us(rows, f"notarize_verify/fabric/{v}") /
              us(rows, prefix + v) for v in volumes]
    yield ("Fig 10b: LedgerDB verify below Fabric at every volume",
           bool(volumes) and all(r > 1.0 for r in ratios),
           ", ".join(f"{v} {r:.0f}x" for v, r in zip(volumes, ratios))
           or "no volumes")


CHECKS = {"dasein": fig7, "capabilities": table1, "qldb_table2": table2,
          "applications": fig10b}


def main():
    parser = argparse.ArgumentParser(
        description="Check the paper's shape claims in bench artifacts")
    parser.add_argument("--dir", default=".",
                        help="directory holding BENCH_<bench>.json for "
                             + ", ".join(BENCHES))
    args = parser.parse_args()

    ok = True
    for bench in BENCHES:
        path = os.path.join(args.dir, f"BENCH_{bench}.json")
        try:
            results = list(CHECKS[bench](load_rows(path)))
        except (OSError, ValueError, KeyError, TypeError,
                ZeroDivisionError) as e:
            # A missing row shows as KeyError('<row name>').
            print(f"FAIL  {bench}: unreadable artifact or row: {e!r}")
            ok = False
            continue
        for claim, passed, detail in results:
            print(f"{'PASS' if passed else 'FAIL'}  {claim}  ({detail})")
            ok &= passed
    print("all paper claims hold" if ok else "PAPER CLAIMS VIOLATED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
