#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by run.py (--results-dir). For
every (workload, metric) the tool prints both sides' median and quartiles
over their runs, and a verdict judged by the bounds in BENCHMARK.json:

  better, worse  the change's median moved past the bound;
  unchanged      it moved less than the bound;
  unresolved     a side's spread (quartile distance over median) is wider
                 than the bound, and neither side's runs all beat the
                 other's.

Per-layer metrics have no bound; they are judged against the wider of the
two sides' spreads, and at least 5 %. Any difference in the exact op counts
(pivot.calls, pivot.edge_ops, pivot.induces) between runs of one workload
at one seed is flagged as needing an explanation. Both sides' environment
stamps are printed, and a difference other than the commit is flagged.
Exits 1 when a metric got worse or an op count changed.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
OP_COUNTS = ("pivot.calls", "pivot.edge_ops", "pivot.induces")
PER_LAYER_FLOOR = 0.05


def load(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and {"workload", "seed", "result"} <= set(doc):
            runs.append(doc)
    if not runs:
        sys.exit(f"compare: no result files in {directory}")
    return runs


def values(runs):
    """(workload, metric) -> the values of every run."""
    table = {}
    for run in runs:
        for name, metric in run["result"].get("metrics", {}).items():
            table.setdefault((run["workload"], name), []).append(
                metric["value"])
    return table


def quartiles(sample):
    if len(sample) < 2:
        return sample[0], sample[0], sample[0]
    q1, median, q3 = statistics.quantiles(sample, n=4)
    return q1, median, q3


def spread(sample):
    q1, median, q3 = quartiles(sample)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base, change, better, bound):
    sign = 1 if better == "lower" else -1  # sign * value: larger is worse
    widest = max(spread(base), spread(change))
    limit = bound if bound is not None else max(widest, PER_LAYER_FLOOR)
    if widest > limit:
        if max(sign * v for v in change) < min(sign * v for v in base):
            return "better"
        if min(sign * v for v in change) > max(sign * v for v in base):
            return "worse"
        return "unresolved"
    base_median, change_median = quartiles(base)[1], quartiles(change)[1]
    if base_median == 0:
        moved = 0.0 if change_median == 0 else sign * change_median
    else:
        moved = sign * (change_median - base_median) / abs(base_median)
    if moved > limit:
        return "worse"
    if moved < -limit:
        return "better"
    return "unchanged"


def op_counts(runs):
    """(workload, seed, counter) -> the set of values seen."""
    table = {}
    for run in runs:
        metrics = run["result"].get("metrics", {})
        for name in OP_COUNTS:
            if name in metrics:
                key = (run["workload"], run["seed"], name)
                table.setdefault(key, set()).add(metrics[name]["value"])
    return table


def environments(runs, with_commit=True):
    return sorted({json.dumps({k: v for k, v in run.get("env", {}).items()
                               if with_commit or k != "git_commit"},
                              sort_keys=True) for run in runs})


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    meta = {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    base_runs, change_runs = load(argv[1]), load(argv[2])
    for label, runs in (("base", base_runs), ("change", change_runs)):
        for env in environments(runs):
            print(f"{label} env: {env}")
    if (environments(base_runs, with_commit=False)
            != environments(change_runs, with_commit=False)):
        print("WARNING: the sides ran in different environments "
              "(build type, compiler, nproc or libgomp)")

    base, change = values(base_runs), values(change_runs)
    workload_order = {w["name"]: i for i, w in enumerate(spec["workloads"])}
    metric_order = {name: i for i, name in enumerate(meta)}
    keys = sorted(set(base) & set(change),
                  key=lambda k: (workload_order.get(k[0], len(workload_order)),
                                 metric_order.get(k[1], len(metric_order))))
    print(f"\n{'workload':<11} {'metric':<31} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'moved':>8}  verdict")
    worse = False
    for workload, name in keys:
        better, bound = meta.get(name, ("lower", None))
        b, c = base[(workload, name)], change[(workload, name)]
        result = verdict(b, c, better, bound)
        worse = worse or result == "worse"
        bq, cq = quartiles(b), quartiles(c)
        moved = (cq[1] - bq[1]) / abs(bq[1]) * 100 if bq[1] else 0.0
        print(f"{workload:<11} {name:<31} {fmt(bq):>32} {fmt(cq):>32} "
              f"{moved:>+7.1f}%  {result} (n={len(b)}/{len(c)})")

    base_counts, change_counts = op_counts(base_runs), op_counts(change_runs)
    changed = [key for key in sorted(set(base_counts) & set(change_counts))
               if base_counts[key] != change_counts[key]
               or len(base_counts[key]) > 1 or len(change_counts[key]) > 1]
    for workload, seed, name in changed:
        print(f"EXPLAIN: {workload} seed {seed} {name}: "
              f"{sorted(base_counts[(workload, seed, name)])} -> "
              f"{sorted(change_counts[(workload, seed, name)])}")
    return 1 if worse or changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
