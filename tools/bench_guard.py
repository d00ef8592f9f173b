#!/usr/bin/env python3
"""Bench regression guard: compare a freshly measured BENCH_micro JSON
against the committed baseline and fail on a material regression.

Usage: bench_guard.py BASELINE.json CURRENT.json [--tolerance 0.30]

Rules (per row, matched by benchmark name):
  * throughput: current ops_per_sec must be >= (1 - tolerance) * baseline.
    The default 30% tolerance absorbs CI-runner noise and the committed
    baseline being measured on different hardware; a hot-path regression
    (e.g. an allocation sneaking back into a steady-state loop) blows well
    past it.
  * ultra-fast rows (baseline < 5 ns/op, e.g. hlc_tick): binary code
    layout alone moves such single-instruction-chain loops by >30%
    (documented in BENCH_micro.json), so their throughput floor is
    halved-again (tolerance doubled, capped at 60%). Their allocation rule
    still applies at full strength.
  * allocations: a row whose baseline is allocation-free (< 0.01 allocs/op)
    must stay allocation-free — allocs/op regressions never get noise slack.
  * rows present only in the current run are fine (new benchmarks); rows
    missing from the current run fail (a benchmark silently disappearing
    would hide regressions).

Realtime-bench documents (a top-level "rows" array, e.g.
BENCH_realtime_socket.json) are guarded too:
  * throughput rows carry "goodput_tx_s" (or "throughput_tx_s") instead of
    "ops_per_sec"; the same floor applies.
  * rows with a nonzero "retransmits_per_drop" (the SACK-efficiency
    headline: retransmissions per chaos-dropped frame) are guarded
    UPWARD — current must stay under baseline * (1 + --retx-tolerance).
    A SACK regression back to go-back-N multiplies this metric, which a
    throughput check alone would miss on a latency-bound run.
  * rows with a nonzero "syscalls_per_frame" (the batching headline:
    pump syscalls per frame moved) are guarded UPWARD the same way —
    current must stay under baseline * (1 + --tolerance). Losing the
    writev/large-read coalescing multiplies this metric while goodput on
    a fast loopback barely moves.
  * rows carry a "loop_mode" ("open" or "closed"): comparing rows of
    different modes is meaningless — closed-loop p99 hides queueing that
    open-loop intended latency charges in full — so a mode mismatch (or a
    mode that silently disappears from the current run) fails outright, it
    is never a tolerance question.
  * rows with a nonzero "vis_p50_ms" (update visibility: how long a
    committed write takes to become readable everywhere, e.g.
    BENCH_realtime_latency.json) are guarded UPWARD like the syscall rule
    — current must stay under baseline * (1 + --tolerance). PaRiS pays
    for non-blocking reads in exactly this metric, and a slower
    stabilization gossip moves neither throughput nor transaction
    latency.
  * rows with a nonzero "achieved_intended_ratio" (open-loop health: the
    rate the system completed over the rate the arrival schedule asked
    for) are guarded DOWNWARD like a throughput floor — an engine that
    silently falls behind its own schedule fails even when raw goodput
    still looks plausible. The metric vanishing also fails.

Self-check mode: `bench_guard.py --json-schema FILE...` validates committed
bench documents instead of comparing two runs — every numeric field must be
finite and non-negative (NaN/Infinity parse fine under Python's json module,
so a broken bench emitter can commit them silently; a negative counter means
an underflowed subtraction). CI runs this over every BENCH_*.json.

Exit code 0 = pass, 1 = regression, 2 = usage/IO error.
"""

import argparse
import json
import math
import sys


def load_rows(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_guard: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    # The micro bench emits "results"; its committed baseline keeps the
    # curated before/after curve ("after" is the baseline); realtime
    # benches commit a plain "rows" array.
    rows = doc.get("results") or doc.get("after") or doc.get("rows") or []
    out = {}
    for r in rows:
        r = dict(r)
        for rate in ("goodput_tx_s", "throughput_tx_s"):
            if "ops_per_sec" not in r and rate in r:
                r["ops_per_sec"] = r[rate]
        out[r["name"]] = r
    return out


def schema_check(paths):
    """Walks every numeric field of each JSON document; NaN/Infinity and
    negative values fail (counters and rates are non-negative by
    construction — a violation means the emitter or a merge underflowed)."""
    bad = 0

    def walk(v, where):
        nonlocal bad
        if isinstance(v, bool):
            return
        if isinstance(v, (int, float)):
            if not math.isfinite(v):
                print(f"  {where}: non-finite value {v!r}", file=sys.stderr)
                bad += 1
            elif v < 0:
                print(f"  {where}: negative value {v!r}", file=sys.stderr)
                bad += 1
        elif isinstance(v, dict):
            for k, x in v.items():
                walk(x, f"{where}.{k}")
        elif isinstance(v, list):
            for i, x in enumerate(v):
                walk(x, f"{where}[{i}]")

    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            print(f"bench_guard: cannot read {path}: {e}", file=sys.stderr)
            return 2
        walk(doc, path)
    if bad:
        print(f"\nbench_guard: FAIL ({bad} malformed numeric fields)", file=sys.stderr)
        return 1
    print(f"bench_guard: OK ({len(paths)} documents, all numeric fields "
          "finite and non-negative)")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("files", nargs="+",
                    help="BASELINE CURRENT (compare mode) or any number of "
                         "bench JSONs with --json-schema")
    ap.add_argument("--tolerance", type=float, default=0.30)
    ap.add_argument("--retx-tolerance", type=float, default=1.00,
                    help="allowed upward slack on retransmits_per_drop rows "
                         "(1.0 = current may be up to 2x the baseline; a "
                         "go-back-N regression overshoots far past that)")
    ap.add_argument("--json-schema", action="store_true",
                    help="validate the given bench documents instead of "
                         "comparing: every numeric field must be finite and "
                         "non-negative")
    args = ap.parse_args()

    if args.json_schema:
        return schema_check(args.files)
    if len(args.files) != 2:
        ap.error("compare mode takes exactly BASELINE and CURRENT")

    base = load_rows(args.files[0])
    cur = load_rows(args.files[1])
    failures = []

    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            failures.append(f"{name}: missing from current run")
            continue
        tol = args.tolerance
        if b.get("ns_per_op", 1e9) < 5.0:  # layout-sensitive micro-row
            tol = min(2 * tol, 0.60)
        if b.get("loop_mode") is not None:
            mode = c.get("loop_mode")
            if mode is None:
                failures.append(
                    f"{name}: loop_mode missing from the current run "
                    f"(baseline is \"{b['loop_mode']}\"; the mode a row was "
                    "driven in may not silently disappear)"
                )
            elif mode != b["loop_mode"]:
                failures.append(
                    f"{name}: loop_mode changed from \"{b['loop_mode']}\" to "
                    f"\"{mode}\" — open- and closed-loop rows measure "
                    "different things and must never be compared"
                )
                print(f"  {name:<34} LOOP MODE MISMATCH "
                      f"({b['loop_mode']} vs {mode})")
                continue  # the numeric comparison below would be meaningless
        floor = (1.0 - tol) * b["ops_per_sec"]
        ratio = c["ops_per_sec"] / b["ops_per_sec"] if b["ops_per_sec"] else 1.0
        status = "ok"
        if c["ops_per_sec"] < floor:
            failures.append(
                f"{name}: {c['ops_per_sec']:.0f} ops/s is {ratio:.2f}x of the "
                f"baseline {b['ops_per_sec']:.0f} (floor {1 - tol:.2f}x)"
            )
            status = "THROUGHPUT REGRESSION"
        if b.get("allocs_per_op", 1.0) < 0.01 and c.get("allocs_per_op", 0.0) >= 0.01:
            failures.append(
                f"{name}: allocs/op regressed from "
                f"{b['allocs_per_op']:.4f} to {c['allocs_per_op']:.4f} "
                "(allocation-free rows must stay allocation-free)"
            )
            status = "ALLOCATION REGRESSION"
        if b.get("retransmits_per_drop", 0.0) > 0.0:
            ceiling = b["retransmits_per_drop"] * (1.0 + args.retx_tolerance)
            retx = c.get("retransmits_per_drop")
            if retx is None:
                # A vanished metric must fail like a vanished row — a
                # defaulted 0.0 would silently disarm the guard.
                failures.append(
                    f"{name}: retransmits_per_drop missing from the current "
                    "run (guarded metrics may not silently disappear)"
                )
                status = "RETRANSMIT METRIC MISSING"
            elif retx > ceiling:
                failures.append(
                    f"{name}: retransmits_per_drop {retx:.2f} exceeds "
                    f"{ceiling:.2f} (baseline {b['retransmits_per_drop']:.2f} "
                    f"+ {args.retx_tolerance:.0%}) — selective repeat has "
                    "regressed toward go-back-N"
                )
                status = "RETRANSMIT REGRESSION"
        if b.get("achieved_intended_ratio", 0.0) > 0.0:
            r_floor = b["achieved_intended_ratio"] * (1.0 - args.tolerance)
            air = c.get("achieved_intended_ratio")
            if air is None:
                failures.append(
                    f"{name}: achieved_intended_ratio missing from the "
                    "current run (guarded metrics may not silently disappear)"
                )
                status = "OPEN-LOOP METRIC MISSING"
            elif air < r_floor:
                failures.append(
                    f"{name}: achieved_intended_ratio {air:.3f} fell below "
                    f"{r_floor:.3f} (baseline {b['achieved_intended_ratio']:.3f} "
                    f"- {args.tolerance:.0%}) — the open-loop engine is "
                    "falling behind its own arrival schedule"
                )
                status = "OPEN-LOOP RATE REGRESSION"
        if b.get("syscalls_per_frame", 0.0) > 0.0:
            ceiling = b["syscalls_per_frame"] * (1.0 + args.tolerance)
            spf = c.get("syscalls_per_frame")
            if spf is None:
                failures.append(
                    f"{name}: syscalls_per_frame missing from the current "
                    "run (guarded metrics may not silently disappear)"
                )
                status = "SYSCALL METRIC MISSING"
            elif spf > ceiling:
                failures.append(
                    f"{name}: syscalls_per_frame {spf:.2f} exceeds "
                    f"{ceiling:.2f} (baseline {b['syscalls_per_frame']:.2f} "
                    f"+ {args.tolerance:.0%}) — the pump's batching has "
                    "regressed toward one syscall per frame"
                )
                status = "SYSCALL BATCHING REGRESSION"
        if b.get("vis_p50_ms", 0.0) > 0.0:
            ceiling = b["vis_p50_ms"] * (1.0 + args.tolerance)
            vis = c.get("vis_p50_ms")
            if vis is None:
                failures.append(
                    f"{name}: vis_p50_ms missing from the current run "
                    "(guarded metrics may not silently disappear)"
                )
                status = "VISIBILITY METRIC MISSING"
            elif vis > ceiling:
                failures.append(
                    f"{name}: vis_p50_ms {vis:.2f} exceeds {ceiling:.2f} "
                    f"(baseline {b['vis_p50_ms']:.2f} + {args.tolerance:.0%}) "
                    "— updates take longer to become visible"
                )
                status = "VISIBILITY REGRESSION"
        print(f"  {name:<34} {ratio:6.2f}x  "
              f"allocs {b.get('allocs_per_op', 0):.3f} -> {c.get('allocs_per_op', 0):.3f}  {status}")

    for name in sorted(set(cur) - set(base)):
        print(f"  {name:<34} (new row, no baseline)")

    if failures:
        print("\nbench_guard: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench_guard: OK ({len(base)} rows within {args.tolerance:.0%} tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
