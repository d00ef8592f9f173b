#!/usr/bin/env python3
"""Records perfbench/baseline.json: the open-loop schedule digests that
run.py's digest gate checks, and the medians and max-min spreads of the
end-to-end metrics over five runs of this commit.

    python3 perfbench/baseline.py

Digests are recorded for seeds 0-31 and 42 at BENCHMARK.json's run_seconds.
Rerun it when a change alters the workload generator on purpose (the digests
change) and whenever a new baseline is measured.
"""

import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # importing run.py must leave no __pycache__ behind
import run  # noqa: E402

RUNS = 5
DIGEST_SEEDS = list(range(32)) + [run.REFERENCE_SEED]


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    bdir = run.build_dir()
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    run.build(bdir, env)
    exe = os.path.join(bdir, "paris_bench")

    digests = {}
    for w in workloads:
        digests[w] = {}
        for seed in DIGEST_SEEDS:
            out = subprocess.run([exe, "--pass", "digest", "--workload", w, "--seed", str(seed),
                                  "--seconds", str(seconds)], capture_output=True, text=True,
                                 check=True, env=env).stdout
            digests[w][str(seed)] = str(json.loads(out)["digest"])
    write({"digests": digests})  # the runs below are gated on them

    # Workloads alternate within each round so host drift spreads evenly.
    samples = {w: {} for w in workloads}
    host = {}
    for i in range(RUNS):
        for w in workloads:
            out = os.path.join(bdir, "baseline", f"{w}-{i + 1}.json")
            p = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload", w,
                                "--seed", str(i + 1), "--seconds", str(seconds), "--trace", "0",
                                "--out", out], cwd=run.ROOT, capture_output=True, text=True)
            if p.returncode:
                sys.exit(f"{w} seed {i + 1} failed:\n{p.stderr}")
            with open(out) as f:
                r = json.load(f)
            host = {k: r["host"][k] for k in ("nproc", "cpu_model", "build_type", "git_rev")}
            for k, m in r["metrics"].items():
                samples[w].setdefault(k, []).append(m["value"])
            print(w, i + 1, {k: round(m["value"], 4) for k, m in r["metrics"].items()}, flush=True)

    medians = {}
    for w, metrics in samples.items():
        medians[w] = {}
        for k, vs in metrics.items():
            med = statistics.median(vs)
            medians[w][k] = {"median": med, "min": min(vs), "max": max(vs),
                             "spread_frac": (max(vs) - min(vs)) / med if med else 0.0}
    write({"digests": digests,
           "runs": {"host": host, "seconds": seconds, "runs": RUNS, "seeds": f"1-{RUNS}",
                    "workloads": medians}})


def write(doc):
    with open(os.path.join(run.HERE, "baseline.json"), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
