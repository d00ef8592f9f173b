#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/paris_bench against the library,
runs one workload, checks the outputs, prints every metric as
`workload metric value unit`, and prints one JSON result as the last line.

    python3 perfbench/run.py --workload read95 --seed 1 --seconds 10 --trace 0 [--out FILE]

--trace 0 measures the end-to-end metrics of BENCHMARK.json (setup, timed,
checked and setup passes); --trace 1 the per-layer ones (timed, traced and
checked passes plus the bench/micro kernels). --out also writes the result with its
host calibration and provenance, for perfbench/compare.py, and with --trace 1
the sampled spans as a Chrome trace next to it. Exit status 1 means a
correctness gate failed, 2 that the benchmark could not run. See
perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170  # everything after the build; a run must end within 180 s
MIN_ACHIEVED_FRAC = 0.99
# The seed whose recorded digest checks the generator when a run's own seed
# or window has none in baseline.json.
REFERENCE_SEED = 42
CHROME_TRACE_TXS = 400
SOCKET_RANKS = 3
# Socket ranks sleep until one CLOCK_MONOTONIC instant (Python's monotonic
# clock and C++'s steady_clock on Linux), this far after they are spawned.
RANK_START_DELAY_NS = 300_000_000

# Event kinds written by paris_bench (EventKind there).
TX, DISPATCH, START, READ, COMMIT = 0, 1, 2, 3, 4
SNAPSHOT_AGE, COMMIT_WRITES, DECIDED, APPLIED, VISIBLE = 5, 6, 7, 8, 9
SPAN_NAMES = {TX: "tx", DISPATCH: "workload.dispatch", START: "client.start",
              READ: "client.read", COMMIT: "client.commit"}
INSTANT_NAMES = {SNAPSHOT_AGE: "client.snapshot", COMMIT_WRITES: "server.commit_writes",
                 DECIDED: "server.decided", APPLIED: "replication.applied",
                 VISIBLE: "ust.visible"}

# bench/micro kernel -> per-layer metric.
MICRO = {"store_snapshot_read": "storage.snapshot_read_ns",
         "store_apply_register": "storage.apply_register_ns",
         "wire_roundtrip_pooled": "wire.roundtrip_pooled_ns",
         "wire_encode_replicate_batch": "wire.encode_replicate_batch_ns",
         "message_pool_cycle": "wire.message_pool_cycle_ns"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed correctness gate)."""


def fail(msg):
    raise BenchError(msg)


def pct(xs, q):
    """Quantile q of the samples, interpolated between closest ranks."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    i = q * (len(xs) - 1)
    lo = int(i)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (i - lo)


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def merge_hists(hists):
    """Sums [lower bound, width, count] bucket lists (see Json::hist)."""
    merged = {}
    for h in hists:
        for lo, width, n in h:
            merged[(lo, width)] = merged.get((lo, width), 0) + n
    return sorted((lo, width, n) for (lo, width), n in merged.items())


def hist_quantile(buckets, q):
    """Quantile q of a bucketed histogram, interpolated linearly inside the
    bucket that holds it, so it moves with the distribution instead of
    jumping between bucket midpoints."""
    target = q * sum(n for _, _, n in buckets)
    seen = 0
    for lo, width, n in buckets:
        if seen + n >= target:
            return lo + (target - seen) / n * width
        seen += n
    return 0.0


# ---------------------------------------------------------------------------
# Build and process plumbing.
# ---------------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir, env):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository's CMakeLists.txt and src/ are missing next to perfbench/")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "paris_bench", "bench_micro",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


class Runner:
    """Starts passes in their own process groups and reaps them by a deadline."""

    def __init__(self, bdir, rundir, env, a, deadline):
        self.exe = os.path.join(bdir, "paris_bench")
        self.micro = os.path.join(bdir, "bench", "micro")
        self.rundir = rundir
        self.env = env
        self.workload = a.workload
        self.args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
        self.deadline = deadline

    def start(self, name, cmd, env=None):
        with open(os.path.join(self.rundir, name + ".log"), "w") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=self.rundir,
                                    env=env or self.env, start_new_session=True)
        return name, proc

    def wait(self, started):
        failed = []
        for name, proc in started:
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                failed.append((name, code))
        for _, proc in started:  # the pass's process group, socket children included
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        for name, code in failed:
            with open(os.path.join(self.rundir, name + ".log")) as f:
                sys.stderr.write("".join(f.readlines()[-20:]))
            fail(f"pass {name} exited with {code}")

    def run(self, pass_name, ranks=None, args=None):
        """Runs a paris_bench pass (one process per socket rank when ranks
        is given; with this run's workload, seed and window unless args
        says otherwise) and returns its JSON results."""
        names = [pass_name] if ranks is None else [f"{pass_name}-{r}" for r in ranks]
        start_at = time.monotonic_ns() + RANK_START_DELAY_NS
        started = []
        for i, name in enumerate(names):
            cmd = [self.exe, "--pass", pass_name, "--dir", self.rundir,
                   "--out", os.path.join(self.rundir, name + ".json")] + (args or self.args)
            if ranks is not None:
                cmd += ["--rank", str(ranks[i]), "--start-at", str(start_at)]
            started.append(self.start(name, cmd))
        self.wait(started)
        results = []
        for name in names:
            with open(os.path.join(self.rundir, name + ".json")) as f:
                results.append(json.load(f))
        return results

    def digest(self, seed, seconds):
        """The open-loop schedule digest the generator draws for seed and window."""
        args = ["--workload", self.workload, "--seed", str(seed), "--seconds", str(seconds)]
        return self.run("digest", args=args)[0]["digest"]

    def events(self, ranks):
        return [os.path.join(self.rundir, f"events-{r}.tsv") for r in ranks]


def read_events(paths, summaries):
    """(rank, kind, tx, begin, end, value, dc, partition, in_window) of every
    recorded event; in_window: it began inside its process's measurement
    window. CLOCK_MONOTONIC is shared by the host's processes, so events of
    one transaction in several rank files compare directly."""
    for rank, (path, s) in enumerate(zip(paths, summaries)):
        lo, hi = s["measure_from_ns"], s["measure_to_ns"]
        with open(path) as f:
            for line in f:
                kind, tx, b, e, v, dc, p = map(int, line.split("\t"))
                yield rank, kind, tx, b, e, v, dc, p, lo <= b < hi


# ---------------------------------------------------------------------------
# Timed pass.
# ---------------------------------------------------------------------------

def timed_values(timed, events):
    """End-to-end metrics and layer counters from the timed pass's processes."""
    decided, visible = {}, []
    for _, kind, tx, b, _, _, _, _, inside in read_events(events, timed):
        if kind == DECIDED and inside:
            decided[tx] = b
        elif kind == VISIBLE:
            visible.append((tx, b))
    vis_ms = [(b - decided[tx]) / 1e6 for tx, b in visible if tx in decided]
    lat = merge_hists(t["latency_us"] for t in timed)
    service = merge_hists(t["service_us"] for t in timed)
    total = lambda k: sum(t[k] for t in timed)  # noqa: E731
    measure_s, horizon_s = timed[0]["measure_s"], timed[0]["run_s"]
    goodput = total("completed") / measure_s
    run_txs = goodput * horizon_s
    frames = total("frames_out") + total("frames_in")
    n = total("completed")
    v = {
        "goodput_tx_s": goodput,
        "lat_p50_ms": hist_quantile(lat, 0.50) / 1e3,
        "lat_p95_ms": hist_quantile(lat, 0.95) / 1e3,
        "vis_p50_ms": pct(vis_ms, 0.50),
        "vis_p95_ms": pct(vis_ms, 0.95),
        "peak_rss_mb": max(t["peak_rss_mb"] for t in timed),
        "workload.dispatch_lag_us": (
            sum(t["latency_mean_us"] * t["completed"] for t in timed) -
            sum(t["service_mean_us"] * t["completed"] for t in timed)) / max(1, n),
        "workload.overdue_frac": total("overdue") / max(1, n),
        "workload.max_backlog": max(t["max_backlog"] for t in timed),
        "client.local_hit_frac": total("local_hits") / max(1, total("keys_read")),
        "ust.gossip_msgs_per_tx": total("gossip_msgs") / run_txs,
        "runtime.events_per_tx": total("events") / run_txs,
        "wire.bytes_per_tx": total("bytes_sent") / run_txs,
        "socket.frames_per_tx": total("frames_out") / run_txs,
        "socket.syscalls_per_frame": total("syscalls") / frames if frames else 0.0,
        "socket.bytes_per_syscall": (total("socket_bytes") / total("syscalls")
                                     if total("syscalls") else 0.0),
        "socket.backpressure_stalls": total("backpressure_stalls"),
    }
    digest = 0
    for t in timed:
        digest ^= t["digest"]
    info = {"lat_p99_ms": hist_quantile(lat, 0.99) / 1e3,
            "lat_samples": sum(c for _, _, c in lat), "vis_samples": len(vis_ms),
            "service_p50_us": hist_quantile(service, 0.50), "digest": str(digest),
            "achieved_frac": n / total("scheduled")}
    return v, info, digest


def timed_gates(r, a, run_seconds, timed, digest, digests, errors):
    """Gates on the timed pass; returns the arrivals that count as failed.

    The open-loop inputs must be the baseline's: the schedule digest must
    equal the one baseline.json records for the seed. For a seed or window
    it has none for, the generator must still draw the recorded digest of
    REFERENCE_SEED at run_seconds; the run says which it checked. And the
    engine must keep up with its schedule: below 99% of the scheduled
    arrivals completed in the window, the latencies describe a backlog."""
    recorded = digests.get(a.workload)
    if recorded is None:
        errors.append("baseline.json records no schedule digests for this workload")
    elif a.seconds == run_seconds and str(a.seed) in recorded:
        if str(digest) != recorded[str(a.seed)]:
            errors.append(f"schedule digest {digest} differs from baseline.json's "
                          f"{recorded[str(a.seed)]}")
    else:
        ref = r.digest(REFERENCE_SEED, run_seconds)
        print(f"{a.workload} baseline.json records no digest for seed {a.seed} at "
              f"{a.seconds} s; checked seed {REFERENCE_SEED} at {run_seconds} s instead",
              file=sys.stderr)
        if str(ref) != recorded[str(REFERENCE_SEED)]:
            errors.append(f"seed {REFERENCE_SEED}'s schedule digest {ref} differs from "
                          f"baseline.json's {recorded[str(REFERENCE_SEED)]}")
    scheduled = sum(t["scheduled"] for t in timed)
    completed = sum(t["completed"] for t in timed)
    if completed / scheduled < MIN_ACHIEVED_FRAC:
        errors.append(f"completed {completed / scheduled:.4f} of the scheduled arrivals "
                      f"(< {MIN_ACHIEVED_FRAC}): the engine fell behind its schedule")
        return scheduled - completed
    return 0


# ---------------------------------------------------------------------------
# Traced pass.
# ---------------------------------------------------------------------------

def traced_values(traced, events):
    """Per-layer numbers from the sampled transactions' events. Client spans
    count when their transaction was due inside the window, server events
    when they happened inside it."""
    spans = {}  # tx -> duration (ns) per span kind
    roots = []  # (begin, tx), to pick the Chrome trace's transactions
    snapshot_age, commit_writes, decided, applied, visible = [], {}, {}, {}, []
    for _, kind, tx, b, e, v, dc, p, inside in read_events(events, traced):
        if kind == TX and inside:
            spans[tx] = [0] * (COMMIT + 1)
            roots.append((b, tx))
        if kind <= COMMIT:
            if tx in spans:
                spans[tx][kind] = e - b
            continue
        if not inside:
            continue
        if kind == SNAPSHOT_AGE:
            snapshot_age.append(v)
        elif kind == COMMIT_WRITES:
            commit_writes[tx] = b
        elif kind == DECIDED:
            decided[tx] = (b, dc)
        elif kind == APPLIED:
            applied[(tx, dc, p)] = b
        elif kind == VISIBLE:
            visible.append((tx, dc, p, b))
    if not spans:
        fail("the traced pass recorded no sampled transaction")

    us = {k: [s[k] / 1e3 for s in spans.values() if s[k]] for k in SPAN_NAMES}
    child_self = {k: mean([s[k] / 1e3 for s in spans.values()]) for k in SPAN_NAMES if k != TX}
    root_mean = mean(us[TX])
    prepare = [(decided[t][0] - b) / 1e3 for t, b in commit_writes.items() if t in decided]
    apply_local, apply_remote = [], []
    for (tx, dc, _), b in applied.items():
        if tx in decided:
            (apply_local if dc == decided[tx][1] else apply_remote).append(
                (b - decided[tx][0]) / 1e3)
    after_apply = [(b - applied[(tx, dc, p)]) / 1e3 for tx, dc, p, b in visible
                   if (tx, dc, p) in applied]
    v = {
        "client.start_us.p50": pct(us[START], 0.5),
        "client.start_us.p95": pct(us[START], 0.95),
        "client.read_us.p50": pct(us[READ], 0.5),
        "client.read_us.p95": pct(us[READ], 0.95),
        "client.commit_us.p50": pct(us[COMMIT], 0.5),
        "client.commit_us.p95": pct(us[COMMIT], 0.95),
        "client.snapshot_age_ms.p50": pct(snapshot_age, 0.5) / 1e3,
        "server.slices_per_tx": (sum(t["slices"] for t in traced) /
                                 max(1, sum(t["completed"] for t in traced))),
        "server.prepare_us.p50": pct(prepare, 0.5),
        "server.prepare_us.p95": pct(prepare, 0.95),
        "replication.apply_local_us.p50": pct(apply_local, 0.5),
        "replication.apply_remote_us.p50": pct(apply_remote, 0.5),
        "ust.visible_after_apply_us.p50": pct(after_apply, 0.5),
        "ust.advances_per_s": (sum(t["ust_advances"] for t in traced) /
                               sum(t["local_servers"] * t["run_s"] for t in traced)),
        "trace.self_us.tx": mean([(s[TX] - sum(s[DISPATCH:])) / 1e3 for s in spans.values()]),
        "trace.self_us.dispatch": child_self[DISPATCH],
        "trace.self_us.start": child_self[START],
        "trace.self_us.read": child_self[READ],
        "trace.self_us.commit": child_self[COMMIT],
        "trace.child_cover_frac": sum(child_self.values()) / root_mean if root_mean else 0.0,
    }
    service_p50 = pct([(s[TX] - s[DISPATCH]) / 1e3 for s in spans.values()], 0.5)
    keep = {tx for _, tx in sorted(roots)[:CHROME_TRACE_TXS]}
    chrome = [ev for ev in read_events(events, traced) if ev[2] in keep]
    return v, service_p50, len(spans), chrome


def write_chrome_trace(path, events):
    """Chrome trace-event JSON (chrome://tracing, Perfetto): one lane per
    coordinator node; each client span names its transaction's root span as
    parent; server events are instants carrying their DC and partition."""
    out = []
    for rank, kind, tx, b, e, v, dc, p, _ in events:
        ev = {"pid": rank, "tid": tx >> 32, "ts": b / 1e3, "args": {"tx": f"{tx:#x}"}}
        if kind <= COMMIT:
            ev.update(name=SPAN_NAMES[kind], ph="X", dur=(e - b) / 1e3)
            if kind != TX:
                ev["args"]["parent"] = f"tx {tx:#x}"
        else:
            ev.update(name=INSTANT_NAMES[kind], ph="i", s="t")
            ev["args"].update(dc=dc, partition=p)
            if kind == SNAPSHOT_AGE:
                ev["args"]["age_us"] = v
        out.append(ev)
    with open(path, "w") as f:
        json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, f)


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------

def run_checked(r, errors):
    """The checked pass; its violations are echoed to stderr."""
    checked = r.run("checked")[0]
    if checked["violations"]:
        errors.append(f"checked pass: {checked['violations']} checker violations")
        with open(os.path.join(r.rundir, "checked.log")) as f:
            sys.stderr.writelines(line for line in f if line.startswith("VIOLATION"))
    return checked


def run_trace0(r, a, ranks, run_seconds, digests):
    errors = []
    setup = r.run("setup")[0]["setup_s"]
    timed = r.run("timed", ranks)
    values, info, digest = timed_values(timed, r.events(ranks or [0]))
    shortfall = timed_gates(r, a, run_seconds, timed, digest, digests, errors)
    checked = run_checked(r, errors)
    setup += r.run("setup")[0]["setup_s"]
    values["setup_s"] = statistics.median(setup)
    info["setup_samples_s"] = setup
    info["checked_committed"] = checked["committed"]
    attempted = sum(t["scheduled"] for t in timed)
    return values, info, timed, attempted, shortfall + checked["violations"], errors, None


def run_trace1(r, a, ranks, run_seconds, digests):
    errors = []
    timed = r.run("timed", ranks)
    values, info, digest = timed_values(timed, r.events(ranks or [0]))
    shortfall = timed_gates(r, a, run_seconds, timed, digest, digests, errors)
    traced = r.run("traced", ranks)
    env = dict(r.env, PARIS_BENCH_FAST="1", PARIS_BENCH_OUT=os.path.join(r.rundir, "micro.json"))
    r.wait([r.start("micro", [r.micro], env)])
    checked = run_checked(r, errors)

    traced_digest = 0
    for t in traced:
        traced_digest ^= t["digest"]
    if traced_digest != digest:
        errors.append(f"traced digest {traced_digest} differs from the timed pass's {digest}")
    issued = sum(t["issued"] for t in traced)
    completed = sum(t["completed"] for t in traced)
    if completed != issued:
        errors.append(f"traced pass: {issued - completed} of {issued} transactions never finished")

    layer, traced_service_p50, sampled, chrome = traced_values(traced, r.events(ranks or [0]))
    values.update(layer)
    values["trace.overhead_frac"] = traced_service_p50 / info["service_p50_us"] - 1
    with open(os.path.join(r.rundir, "micro.json")) as f:
        kernels = {k["name"]: k["ns_per_op"] for k in json.load(f)["results"]}
    for kernel, metric in MICRO.items():
        if kernel not in kernels:
            fail(f"bench/micro no longer reports {kernel}")
        values[metric] = kernels[kernel]
    info = {"sampled_txs": sampled, "traced_service_p50_us": traced_service_p50,
            "untraced_service_p50_us": info["service_p50_us"], "digest": str(digest)}
    failed = shortfall + (issued - completed) + checked["violations"]
    return values, info, timed, issued, failed, errors, chrome


# ---------------------------------------------------------------------------

def provenance(bdir, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    build_type = "unknown"
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    rev = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "build_type": build_type,
            "git_rev": rev or "none", "seed": seed}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="also write the full result (and Chrome trace) here")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [x["name"] for x in spec["workloads"]]:
        fail(f"unknown workload {a.workload}")
    with open(os.path.join(HERE, "baseline.json")) as f:
        digests = json.load(f)["digests"]

    bdir = build_dir()
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    build(bdir, env)
    rundir = os.path.join(bdir, "runs", f"{a.workload}-{a.seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    r = Runner(bdir, rundir, env, a, time.monotonic() + RUN_BUDGET_S)
    ranks = list(range(SOCKET_RANKS)) if a.workload.endswith("-sockets") else None
    try:
        values, info, timed, attempted, failed, errors, chrome = (
            run_trace1 if a.trace else run_trace0)(r, a, ranks, spec["run_seconds"], digests)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    declared = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{a.workload} {name} {m['value']!r} {m['unit']}")
    for name, v in info.items():
        print(f"{a.workload} {name} {v} (ungated)")
    for e in errors:
        print(f"{a.workload} CORRECTNESS: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": int(attempted), "failed": int(failed),
              "metrics": metrics}
    if a.out:
        host = provenance(bdir, a.seed)
        host["calib_ns_before"] = mean([t["calib_ns_before"] for t in timed])
        host["calib_ns_after"] = mean([t["calib_ns_after"] for t in timed])
        full = dict(result, workload=a.workload, seed=a.seed, seconds=a.seconds, trace=a.trace,
                    info=info, host=host)
        os.makedirs(os.path.dirname(os.path.abspath(a.out)), exist_ok=True)
        with open(a.out, "w") as f:
            json.dump(full, f, indent=1)
    if chrome:
        write_chrome_trace(os.path.splitext(a.out)[0] + ".trace.json" if a.out else
                           os.path.join(bdir, f"last-{a.workload}.trace.json"), chrome)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
