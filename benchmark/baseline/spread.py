#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs the command in BENCHMARK.json once per workload and seed, untraced,
from the repository root, and prints a markdown table: for each
end-to-end metric and workload, the median over the runs and the
interquartile range as a share of the median, as
statistics.quantiles(values, n=4) gives them, beside the metric's bound.

usage: python3 benchmark/baseline/spread.py [--runs 10] [--first-seed 100]
"""
import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    """(median, interquartile range / median) of a list of numbers."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def table(bench, results):
    """Markdown table of `results` ({workload: [{metric: value}]})."""
    workloads = [w["name"] for w in bench["workloads"]]
    lines = [
        "| metric | bound | " + " | ".join(workloads) + " |",
        "|---|---|" + "---|" * len(workloads),
    ]
    for metric in bench["end_to_end"]:
        cells = []
        for w in workloads:
            median, share = spread([run[metric["name"]] for run in results[w]])
            over = " **over**" if share > metric["bound"] and metric["name"] != "setup_s" else ""
            cells.append(f"{median:.5g} {metric['unit']}, {share:.1%}{over}")
        lines.append(f"| `{metric['name']}` | {metric['bound']} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                bench["command"]
                + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True,
            ).stdout
            last = json.loads(out.strip().splitlines()[-1])
            results[workload].append({k: m["value"] for k, m in last["metrics"].items()})
            print(workload, seed, results[workload][-1], file=sys.stderr)
    print(table(bench, results))


if __name__ == "__main__":
    main()
