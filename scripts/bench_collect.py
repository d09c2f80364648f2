#!/usr/bin/env python3
"""Runs every BENCHMARK.json workload over several seeds and writes the
medians as one trajectory file (BENCH_<n>.json at the repository root).

Usage (from the repository root):

    python3 scripts/bench_collect.py --out BENCH_16.json --label 16 \
        --seconds 25 [--seeds 1,2,3,4,5,6,7,8,9,10] [--parent DIR]

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T` in
this checkout and, with --parent, in DIR (another checkout, typically the
parent commit); the two alternate run by run, and which of them runs first
flips with every seed, so both see the same machine conditions and neither
always inherits the other's warm caches. The file records, per workload and
end-to-end metric, the median over seeds, plus every per-seed value, `nproc`
and the build type.
scripts/bench_compare.py diffs two such files, or the parent and change
halves of one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`; returns its metrics dict."""
    out = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit("bench_collect: %s seed %d in %s: incorrect or failed run"
                 % (workload, seed, checkout))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(samples):
    """{metric: [per-seed values]} -> {metric: {"median", "runs"}}."""
    return {name: {"median": statistics.median(values), "runs": values}
            for name, values in samples.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", required=True,
                        help="what the file measures, e.g. the change number")
    # Ten pairs: the fewest a gain claim may rest on.
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--parent", help="checkout to measure alongside")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    arms = {"change": ROOT}
    if args.parent:
        arms["parent"] = os.path.abspath(args.parent)
    samples = {arm: {w: {} for w in workloads} for arm in arms}
    for workload in workloads:
        for i, seed in enumerate(seeds):
            order = list(arms.items())
            if i % 2 == 1:
                order.reverse()
            for arm, checkout in order:
                metrics = run_once(checkout, workload, seed, args.seconds)
                for name, value in metrics.items():
                    samples[arm][workload].setdefault(name, []).append(value)
                print("%-15s seed %d %-6s %s" % (workload, seed, arm,
                                                 json.dumps(metrics)),
                      file=sys.stderr)

    doc = {
        "label": args.label,
        "nproc": os.cpu_count(),
        "build_type": "Release",
        "seeds": seeds,
        "seconds": args.seconds,
        "medians": {w: summarize(samples["change"][w]) for w in workloads},
    }
    if args.parent:
        doc["parent_medians"] = {w: summarize(samples["parent"][w])
                                 for w in workloads}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
