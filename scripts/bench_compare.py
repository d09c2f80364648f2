#!/usr/bin/env python3
"""Diffs two benchmark trajectory files against BENCHMARK.json's bounds.

Usage (from the repository root):

    python3 scripts/bench_compare.py BENCH_16.json BENCH_17.json
    python3 scripts/bench_compare.py BENCH_16.json   # its parent vs change

With two files, the first file's medians are the baseline and the second's
are compared against them. With one file (written by
scripts/bench_collect.py --parent), its parent medians are the baseline.
For every workload and end-to-end metric of BENCHMARK.json, a median worse
than the baseline by more than the metric's bound (a fraction: 0.25 means
25%) is a regression. Prints one line per metric and exits 1 if any metric
regressed, 0 otherwise.

When both sides carry per-seed runs (at least four, in the same seed order),
a line also shows in how many seed pairs the new side was better and
whether the median moved by more than the baseline's inter-quartile range
("resolved") or not ("noise"): a move inside that spread is not a measured
change in either direction.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return json.load(f)


def spread(old_runs, new_runs, lower_is_better):
    """'better in k/n pairs, resolved|noise', or '' without paired runs."""
    if len(old_runs) < 4 or len(old_runs) != len(new_runs):
        return ""
    wins = sum((n < o) if lower_is_better else (n > o)
               for o, n in zip(old_runs, new_runs))
    q1, _, q3 = statistics.quantiles(old_runs, n=4)
    moved = abs(statistics.median(new_runs) - statistics.median(old_runs))
    return "  better in %d/%d pairs, %s" % (
        wins, len(old_runs), "resolved" if moved > q3 - q1 else "noise")


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    if len(argv) == 3:
        first, second = load(argv[1]), load(argv[2])
        base, new = first["medians"], second["medians"]
        paired = first.get("seeds") == second.get("seeds")
    else:
        doc = load(argv[1])
        if "parent_medians" not in doc:
            sys.exit("bench_compare: %s has no parent medians" % argv[1])
        base, new = doc["parent_medians"], doc["medians"]
        paired = True
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))

    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                old = base[workload][name]["median"]
                cur = new[workload][name]["median"]
            except KeyError:
                print("%-15s %-13s missing" % (workload, name))
                regressions += 1
                continue
            lower_is_better = metric["better"] == "lower"
            change = (cur - old) / old if old else 0.0
            worse = change if lower_is_better else -change
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            regressions += verdict != "ok"
            runs = ""
            if paired:
                runs = spread(base[workload][name].get("runs", []),
                              new[workload][name].get("runs", []),
                              lower_is_better)
            print("%-15s %-13s %12.4g -> %12.4g %s  %+7.1f%%  %s%s"
                  % (workload, name, old, cur, metric["unit"], 100 * change,
                     verdict, runs))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
