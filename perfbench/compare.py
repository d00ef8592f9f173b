#!/usr/bin/env python3
"""Compares two sets of benchmark results against BENCHMARK.json.

    python3 perfbench/compare.py A/ B/

A/ and B/ hold result files written by `run.py --out` (A: the parent, B: the
change). For every workload and end-to-end metric it compares the two
medians in the metric's direction and labels the pairing:

  regressed   B's median is worse than A's by more than the metric's bound;
  improved    at least 10 pairs of runs, B wins at least 9 in 10 of them
              (paired by seed, ties count for neither), the medians differ
              by more than the distance between A's quartiles, and B's runs
              failed no more operations than A's;
  unresolved  the two sides' host calibration kernels read more than 5%
              apart, or either side's quartile spread is wider than the
              bound and not every B run reads better than every A run;
  unchanged   otherwise.

Per-layer results (--trace 1) are listed with both medians, unlabelled.
Exits 1 when a pairing regressed or a result omits a declared metric or
emits an undeclared one.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_DRIFT = 0.05
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(d, spec):
    """Results of one side by (workload, trace), and schema errors."""
    workloads = {w["name"] for w in spec["workloads"]}
    runs, errors = {}, []
    for name in sorted(os.listdir(d)):
        if not name.endswith(".json") or name.endswith(".trace.json"):
            continue
        path = os.path.join(d, name)
        with open(path) as f:
            r = json.load(f)
        declared = {m["name"] for m in spec["per_layer" if r["trace"] else "end_to_end"]}
        got = set(r["metrics"])
        if r["workload"] not in workloads:
            errors.append(f"{path}: undeclared workload {r['workload']}")
        if declared - got:
            errors.append(f"{path}: omits {', '.join(sorted(declared - got))}")
        if got - declared:
            errors.append(f"{path}: emits undeclared {', '.join(sorted(got - declared))}")
        runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs, errors


def values(rs, name):
    return [r["metrics"][name]["value"] for r in rs]


def calib(r):
    return (r["host"]["calib_ns_before"] + r["host"]["calib_ns_after"]) / 2


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def pairs(a_runs, b_runs, name):
    """(a, b) value pairs: by seed when both sides ran the same seeds."""
    a_by = {r["seed"]: r["metrics"][name]["value"] for r in a_runs}
    b_by = {r["seed"]: r["metrics"][name]["value"] for r in b_runs}
    if a_by.keys() == b_by.keys():
        return [(a_by[s], b_by[s]) for s in sorted(a_by)]
    return list(zip(values(a_runs, name), values(b_runs, name)))


def label(m, a_runs, b_runs):
    """(label, median A, median B, B's change as a share of A, worse-is-positive)."""
    name, bound = m["name"], m["bound"]
    sign = 1 if m["better"] == "lower" else -1  # sign * (b - a) > 0: B is worse
    a, b = values(a_runs, name), values(b_runs, name)
    ma, mb = statistics.median(a), statistics.median(b)
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    ca = statistics.median(calib(r) for r in a_runs)
    cb = statistics.median(calib(r) for r in b_runs)
    if abs(cb - ca) / ca > HOST_DRIFT:
        return "unresolved (host drift)", ma, mb, worse
    if worse > bound:
        return "regressed", ma, mb, worse
    pr = pairs(a_runs, b_runs, name)
    wins = sum(1 for x, y in pr if sign * (y - x) < 0)
    failed = [sum(r["failed"] for r in rs) for rs in (a_runs, b_runs)]
    if (len(pr) >= MIN_PAIRS and wins >= WIN_SHARE * len(pr) and sign * (ma - mb) > iqr(a)
            and failed[1] <= failed[0]):
        return "improved", ma, mb, worse
    spread = max(iqr(a) / abs(ma) if ma else 0.0, iqr(b) / abs(mb) if mb else 0.0)
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not every_b_better:
        return "unresolved (spread)", ma, mb, worse
    return "unchanged", ma, mb, worse


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a_runs, a_err = load(argv[1], spec)
    b_runs, b_err = load(argv[2], spec)
    errors = a_err + b_err
    regressed = 0
    print(f"{'workload':18} {'metric':34} {'A median':>14} {'B median':>14} "
          f"{'worse':>8}  label")
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, trace = key
        for m in spec["per_layer" if trace else "end_to_end"]:
            if any(m["name"] not in r["metrics"] for r in a_runs[key] + b_runs[key]):
                continue  # reported as a schema error above
            if trace:
                ma = statistics.median(values(a_runs[key], m["name"]))
                mb = statistics.median(values(b_runs[key], m["name"]))
                print(f"{workload:18} {m['name']:34} {ma:14.6g} {mb:14.6g} {'':>8}  per-layer")
                continue
            lab, ma, mb, worse = label(m, a_runs[key], b_runs[key])
            regressed += lab == "regressed"
            print(f"{workload:18} {m['name']:34} {ma:14.6g} {mb:14.6g} {worse:+8.2%}  {lab}")
    for key in sorted(set(a_runs) ^ set(b_runs)):
        errors.append(f"workload {key[0]} (trace {key[1]}) has results on one side only")
    for e in errors:
        print("ERROR " + e, file=sys.stderr)
    return 1 if regressed or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
