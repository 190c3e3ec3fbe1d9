#!/usr/bin/env python3
"""Pair comparison of two checkouts on the repository benchmark.

    python3 perfbench/compare.py --parent <dir> --change <dir> \
        [--workload <name> ...] [--held-out]

Each of 10 pairs runs the untraced benchmark once in the parent checkout and
once in the change checkout with the same seed (pair i uses seed + i, from
plan.json's default seed, or its held-out seed with --held-out, which is
kept for confirming a claim after the change is written). The side that runs
first alternates from pair to pair. Both sides use the run length
BENCHMARK.json fixes. --workload restricts the comparison to the named
workloads (all by default), e.g. to the one a change targets. For every
workload and end-to-end metric the tool reports each side's median and
quartiles over its correct runs and a verdict:

  improved    the change wins at least 9 of the 10 pairs (ties, and pairs
              where either side failed, count for neither), the medians
              differ, in the better direction, by more than the parent's
              interquartile range, and the change failed no more operations
              than the parent;
  regressed   otherwise, when the change's median is worse than the
              parent's by more than the bound (a share of the parent's
              median);
  unresolved  otherwise, when the parent's own spread (IQR / median) is
              wider than the metric's bound, unless every change run beats
              every parent run;
  unchanged   otherwise.

A run counts its failed operations from the result line; a run that ends
without a result counts as one failed operation and gives no values. Output
is one row per workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10


def load_json(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Classifies one metric from paired runs.

    `parent` and `change` hold one value per pair, in pair order, with None
    for a run that failed; `*_failed` count each side's failed operations.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs
               if p is not None and c is not None and sign * (c - p) > 0)
    parent = [p for p in parent if p is not None]
    change = [c for c in change if c is not None]
    if not parent or not change:
        return "unresolved", wins
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gap = sign * (cm - pm)
    if (wins * 10 >= 9 * len(pairs) and gap > (p3 - p1)
            and change_failed <= parent_failed):
        return "improved", wins
    if -gap > bound * abs(pm):
        return "regressed", wins
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def run_once(checkout, workload, seed, seconds):
    """(metric values or None, failed operations) of one untraced run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        return None, 1
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        return None, max(1, result["failed"])
    return {k: v["value"] for k, v in result["metrics"].items()}, result["failed"]


def main():
    bench = load_json(os.path.join(HERE, os.pardir, "BENCHMARK.json"))
    plan = load_json(os.path.join(HERE, "plan.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--held-out", action="store_true")
    args = parser.parse_args()
    seed = plan["held_out_seed"] if args.held_out else plan["default_seed"]

    for workload in args.workload or workloads:
        runs = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                values, fails = run_once(checkout, workload, seed + i,
                                         bench["run_seconds"])
                runs[side].append(values)
                failed[side] += fails

        cells = []
        for m in bench["end_to_end"]:
            parent = [None if r is None else r[m["name"]]
                      for r in runs["parent"]]
            change = [None if r is None else r[m["name"]]
                      for r in runs["change"]]
            v, wins = verdict(parent, change, m["better"], m["bound"],
                              failed["parent"], failed["change"])
            stats = []
            for side in (parent, change):
                ok = [x for x in side if x is not None]
                if ok:
                    q1, q2, q3 = quartiles(ok)
                    stats.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
                else:
                    stats.append("no correct run")
            cells.append(f"{m['name']} {v} ({wins}/{PAIRS} wins; parent "
                         f"{stats[0]} -> change {stats[1]} {m['unit']})")
        print(f"{workload} (seeds {seed}..{seed + PAIRS - 1}; failed "
              f"operations parent {failed['parent']}, change "
              f"{failed['change']}): " + "; ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
