#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds runs written by `run.py --out DIR/<run>`: every
<workload>.json below it, at any depth, is one run.
Both sides must come from the same benchmark code and settings. Runs pair
up in sorted directory order, so name them in the order they ran, and
alternate which side runs first.

For every (end-to-end metric, workload) row, with the bounds of
BENCHMARK.json, and for every operation class's median (a latex build
leg, a shell command, an http request kind) under op_ms's bound, so that
no class can hide inside op_ms's geometric mean:
  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more
              than the parent's quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  not regressed, but the run-to-run spread (quartile distance
              over median, either side) is wider than the bound, and not
              every change run reads better than every parent run;
  unchanged   otherwise.
Per workload, the share of failed operations must not rise.
Exits 1 when any row regressed, is unresolved, or failures rose.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: [record, ...]} for the untraced runs under directory,
    in sorted path order."""
    runs = {}
    pattern = os.path.join(directory, "**", "*.json")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as f:
            rec = json.load(f)
        if isinstance(rec, dict) and "workload" in rec \
                and not rec.get("trace"):
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def spread(values):
    """Quartile distance over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def verdict(parent, change, better, bound):
    """Verdict for one (metric, workload) row; parent and change are the
    per-run values in run order."""
    lower = better == "lower"
    med_a, med_b = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs):
        q1, _, q3 = statistics.quantiles(parent, n=4)
        if abs(med_b - med_a) > q3 - q1:
            return "improved"
    worse = (med_b - med_a) if lower else (med_a - med_b)
    if med_a and worse / abs(med_a) > bound:
        return "regressed"
    if max(spread(parent), spread(change)) > bound:
        every_better = (max(change) < min(parent) if lower
                        else min(change) > max(parent))
        if not every_better:
            return "unresolved"
    return "unchanged"


def failure_share(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return failed / attempted if attempted else 0.0


def row(wl, name, a, b, better, bound):
    """(workload, metric, verdict, parent median, change median); a row
    missing its values on either side is unresolved."""
    if not a or not b:
        return (wl, name, "unresolved", None, None)
    return (wl, name, verdict(a, b, better, bound), statistics.median(a),
            statistics.median(b))


def compare(spec, parent_runs, change_runs):
    """Rows of (workload, metric, verdict, parent median, change median)
    and the failure rows (workload, parent share, change share, ok)."""
    op = next(m for m in spec["end_to_end"] if m["name"] == "op_ms")
    rows, failures = [], []
    for wl in sorted(set(parent_runs) | set(change_runs)):
        a_recs = parent_runs.get(wl, [])
        b_recs = change_runs.get(wl, [])
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in a_recs
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_recs
                 if name in r["metrics"]]
            rows.append(row(wl, name, a, b, m["better"], m["bound"]))
        classes = sorted({c for r in a_recs + b_recs
                          for c in r.get("classes", {})})
        for c in classes:
            a = [r["classes"][c] for r in a_recs
                 if r.get("classes", {}).get(c)]
            b = [r["classes"][c] for r in b_recs
                 if r.get("classes", {}).get(c)]
            rows.append(row(wl, c, a, b, op["better"], op["bound"]))
        fa, fb = failure_share(a_recs), failure_share(b_recs)
        failures.append((wl, fa, fb, fb <= fa))
    return rows, failures


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    rows, failures = compare(spec, parent, change)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    for wl in sorted(set(parent) | set(change)):
        print(f"{wl}: {len(parent.get(wl, []))} parent runs, "
              f"{len(change.get(wl, []))} change runs")
    print(f"{'workload':8} {'metric':22} {'parent':>12} {'change':>12}"
          f" {'delta':>8}  verdict")
    bad = False
    for wl, name, v, ma, mb in rows:
        if ma is None:
            print(f"{wl:8} {name:22} {'-':>12} {'-':>12} {'-':>8}  {v}")
        else:
            print(f"{wl:8} {name:22} {ma:12.6g} {mb:12.6g}"
                  f" {(mb - ma) / ma:+8.1%}  {v}")
        bad = bad or v in ("regressed", "unresolved")
    for wl, fa, fb, ok in failures:
        print(f"{wl:8} failed share: parent {fa:.4%} change {fb:.4%} "
              f"{'ok' if ok else 'ROSE'}")
        bad = bad or not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
