#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

  python3 bench/suite/compare.py PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds the results files that `run.py --out` wrote, one per
run; the i-th file (by name) of each side forms pair i, so name them in the
order the runs alternated. Every workload x end-to-end metric gets one row
and one verdict:

  gain        the change wins at least 9 of every 10 pairs (ties count for
              neither), its median beats the parent's by more than the
              parent's own spread (the distance between its quartiles), no
              more operations failed than at the parent, and there are at
              least 10 pairs;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the runs of either side spread wider than the bound (IQR over
              median), unless every change run beats every parent run;
  same        none of these.

Exit status 1 when any row is a regression, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
# Pairs a gain needs (choosing-metrics: at least 10 alternating pairs).
MIN_PAIRS = 10


def load_side(directory):
    """{(workload, metric): [value per run]} and {workload: failed ops},
    over the untraced results of every file in `directory`, in name order."""
    values = {}
    failed = {}
    for path in sorted(Path(directory).glob("*.json")):
        for result in json.loads(path.read_text())["results"]:
            if result["trace"]:
                continue
            workload = result["workload"]
            failed[workload] = failed.get(workload, 0) + result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    lo, hi = quartiles(values)
    median = statistics.median(values)
    return (hi - lo) / abs(median) if median else float("inf")


def judge(parent, change, better, bound, more_failures=False):
    """Verdict and statistics for one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_lo, p_hi = quartiles(parent)
    gain_by = sign * (c_med - p_med)
    worse_share = -gain_by / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    row = {"pairs": pairs, "wins": wins, "parent_median": p_med,
           "change_median": c_med,
           "delta": (c_med - p_med) / abs(p_med) if p_med else 0.0,
           "spread": max(spread(parent), spread(change)), "bound": bound}
    if (pairs >= MIN_PAIRS and wins >= 0.9 * pairs and
            gain_by > p_hi - p_lo and not more_failures):
        row["verdict"] = "gain"
    elif worse_share > bound:
        row["verdict"] = "regression"
    elif row["spread"] > bound and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "same"
    return row


def compare(parent_dir, change_dir, spec):
    parent, parent_failed = load_side(parent_dir)
    change, change_failed = load_side(change_dir)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            row = judge(parent[key], change[key], metric["better"],
                        metric["bound"],
                        change_failed.get(workload, 0) >
                        parent_failed.get(workload, 0))
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], **row})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads(args.spec.read_text())
    rows = compare(args.parent, args.change, spec)
    if not rows:
        print("no workload/metric appears on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':18} {'metric':18} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'wins':>6} {'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:18} {r['metric']:18} "
              f"{r['parent_median']:12.6g} {r['change_median']:12.6g} "
              f"{r['delta']:+8.2%} {r['wins']:>3}/{r['pairs']:<2} "
              f"{r['spread']:7.2%} {r['bound']:6.0%}  {r['verdict']}")
    if any(r["pairs"] < MIN_PAIRS for r in rows):
        print(f"note: fewer than {MIN_PAIRS} pairs; no gain can be "
              "claimed", file=sys.stderr)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
