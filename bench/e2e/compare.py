#!/usr/bin/env python3
"""Compare repeated phi_bench runs of two commits, or summarise one.

Usage, from the repository root:

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/e2e/compare.py RUNS_DIR            # summary as JSON

Each directory holds the --json files of repeated runs of one commit:
one run per file, or {"runs": [...]} as an all-workload run writes it.
For every workload and end-to-end metric of BENCHMARK.json the
comparison prints each side's median, quartiles and max/min spread,
and a verdict under the rules of the choosing-metrics method:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile distance;
  worse       the change's median is worse than the parent's by more
              than the metric's bound (a share of the parent's median);
  unresolved  the parent's interquartile spread is wider than the bound
              and not every change run beats every parent run;
  unchanged   otherwise.

Pairs are taken in file-name order: name the files so that the i-th
parent run and the i-th change run ran back to back.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(directory):
    """{workload: {metric: [values in file-name order]}}."""
    out = {}
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        sys.exit(f"compare.py: no .json runs in {directory}")
    for path in files:
        doc = json.loads(path.read_text())
        for run in doc.get("runs", [doc]):
            per = out.setdefault(run["workload"], {})
            for name, m in run["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "improved"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def describe(values):
    q1, q3 = quartiles(values)
    lo = min(values)
    spread = max(values) / lo if lo else float("inf")
    return (f"{statistics.median(values):>12.5g} [{q1:.5g}, {q3:.5g}] "
            f"max/min={spread:.3f}")


def summary(runs, metrics):
    out = {}
    for workload, per in sorted(runs.items()):
        out[workload] = {}
        for m in metrics:
            values = per.get(m["name"])
            if values:
                q1, q3 = quartiles(values)
                out[workload][m["name"]] = {
                    "median": statistics.median(values), "q1": q1, "q3": q3,
                    "runs": len(values), "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    args = parser.parse_args()
    if len(args.dirs) > 2:
        parser.error("give one directory (summary) or two (comparison)")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]

    if len(args.dirs) == 1:
        json.dump(summary(load_runs(args.dirs[0]), metrics), sys.stdout,
                  indent=2)
        print()
        return

    parent, change = (load_runs(d) for d in args.dirs)
    for workload in sorted(set(parent) & set(change)):
        print(f"\n{workload}")
        for m in metrics:
            p = parent[workload].get(m["name"])
            c = change[workload].get(m["name"])
            if not p or not c:
                continue
            print(f"  {m['name']:<16} parent {describe(p)}\n"
                  f"  {'':<16} change {describe(c)}  -> "
                  f"{verdict(p, c, m['better'], m['bound'])}")


if __name__ == "__main__":
    main()
