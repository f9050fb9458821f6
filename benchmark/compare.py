#!/usr/bin/env python3
"""Compares two sets of benchmark runs under BENCHMARK.json's bounds.

    python3 benchmark/compare.py A B

A (the parent) and B (the change) are result directories written by
benchmark/run.sh: one <workload>/seed-<n>.json per run, holding run.py's
result line. Runs of the two sides are paired by seed. For every
(end-to-end metric, workload) row it prints each side's median and quartiles
and one label:

  improved    B is better in at least 9 of 10 pairs (ties count for
              neither), the medians differ by more than A's quartile
              spread, and B failed no more operations than A;
  worse       B's median is worse than A's by more than the metric's bound;
  unresolved  a side's quartile spread is wider than the bound and not every
              B run is better than every A run;
  unchanged   otherwise.

Exits 1 when a row is worse, 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {seed: result}} from a run.sh result directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*/seed-*.json")):
        text = path.read_text(encoding="utf-8").strip()
        if not text:
            continue
        seed = int(path.stem.split("-", 1)[1])
        runs.setdefault(path.parent.name, {})[seed] = json.loads(text.splitlines()[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def label(a, b, lower_is_better, bound, b_fails_more):
    """The row label for paired value lists `a` and `b`."""
    def better(x, y):
        return x < y if lower_is_better else x > y

    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse_by = (b_med - a_med) / a_med if a_med else 0.0
    if not lower_is_better:
        worse_by = -worse_by
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    wins = sum(1 for x, y in zip(a, b) if better(y, x))
    decided = sum(1 for x, y in zip(a, b) if x != y)
    all_better = all(better(y, x) for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved", wins, decided
    if worse_by > bound:
        return "worse", wins, decided
    if (decided and wins >= 0.9 * len(a) and abs(b_med - a_med) > a_q3 - a_q1
            and not b_fails_more):
        return "improved", wins, decided
    return "unchanged", wins, decided


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="result directory of the parent")
    parser.add_argument("b", help="result directory of the change")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    side_a, side_b = load(args.a), load(args.b)

    print(f"{'workload':<16} {'metric':<18} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8} {'bound':>6} {'wins':>6}  label")
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        runs_a, runs_b = side_a.get(workload, {}), side_b.get(workload, {})
        seeds = sorted(set(runs_a) & set(runs_b))
        if not seeds:
            print(f"{workload:<16} no runs with a common seed")
            continue
        failed_a = sum(runs_a[s]["failed"] for s in seeds)
        failed_b = sum(runs_b[s]["failed"] for s in seeds)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [runs_a[s]["metrics"][name]["value"] for s in seeds]
            b = [runs_b[s]["metrics"][name]["value"] for s in seeds]
            lower = metric["better"] == "lower"
            verdict, wins, decided = label(a, b, lower, metric["bound"], failed_b > failed_a)
            any_worse |= verdict == "worse"
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            change = (b_med - a_med) / a_med * 100 if a_med else 0.0
            print(f"{workload:<16} {name:<18} "
                  f"{f'{a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]':>32} "
                  f"{f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]':>32} "
                  f"{change:>+7.2f}% {metric['bound']:>6.2f} {f'{wins}/{decided}':>6}  {verdict}")
        if failed_b > failed_a:
            print(f"{workload:<16} B failed {failed_b} operations, A {failed_a}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
