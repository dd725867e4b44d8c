#!/usr/bin/env python3
"""BEAR reproduction benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: campaign_quick, rate_pairs_dev, daemon_jobs (see
perfbench/README.md). The script builds the program and the benchmark's
own binary perfbench-sim from source (release, offline, into
$CARGO_TARGET_DIR or .bench_build) and runs perfbench-sim, which repeats
the workload until S seconds have passed and checks its outputs. This script then
prints every metric by name with its unit and sample count, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a separate traced run. It exits 1 when a correctness
check fails and 2 when it cannot run at all.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "metrics.json").read_text())


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Builds `all_experiments` (the campaign workload's child) and
    perfbench-sim into the same directory; returns perfbench-sim."""
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail("run from the root of a BEAR checkout: no Cargo.toml / crates here")
    env = {k: v for k, v in os.environ.items() if not k.startswith("BEAR_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "bear-bench", "--bin", "all_experiments"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return (root / env["CARGO_TARGET_DIR"]) / "release" / "perfbench-sim", env


def run_sim(exe, root, env, scratch, args):
    """Runs perfbench-sim and returns its raw-sample document."""
    cmd = [str(exe), args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch)]
    err_path = scratch / "perfbench-sim.err"
    with open(err_path, "wb") as err:
        p = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err)
    err_text = err_path.read_text(errors="replace")
    lines = p.stdout.decode(errors="replace").splitlines()
    if p.returncode != 0 or not lines:
        fail(f"perfbench-sim exited with {p.returncode}\n{err_text[-2000:]}")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """Highest whole percentile (nearest rank) with at least 10 samples
    beyond it, and its value."""
    n = len(samples)
    p = 100 * (n - 10) // n if n > 10 else 0
    if p == 0:
        return None, None
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def end_to_end(doc):
    """The end-to-end metrics of one untraced run: name -> (value, samples).

    Every figure but set-up time and memory is taken per repetition, then
    the median over repetitions. Job latency is a repetition's mean: its
    jobs are unlike (a campaign's fig12 step is longer than its table4
    step; the cell grid reorders with the seed), and a median of unlike
    jobs jumps between kinds from run to run."""
    reps = doc["reps"]
    per_rep = lambda key: median([r[key] / r["wall_s"] for r in reps])
    return {
        "setup_s": (median(doc["setup_s"]), len(doc["setup_s"])),
        "wall_s": (median([r["wall_s"] for r in reps]), len(reps)),
        "sim_mcycles_per_s": (per_rep("cycles") / 1e6, len(reps)),
        "sim_minsts_per_s": (per_rep("insts") / 1e6, len(reps)),
        "peak_rss_mb": (doc["peak_rss_mb"], 1),
        "jobs_per_s": (per_rep("jobs"), len(reps)),
        "job_latency_mean_ms": (median([statistics.fmean(r["latencies_ms"]) for r in reps]), len(reps)),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=SPEC["workloads"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    exe, env = build(root)
    scratch = root / ".bench_scratch"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        doc = run_sim(exe, root, env, scratch, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    traced = args.trace == 1
    if not traced and not doc["reps"]:
        fail("the workload produced no measurement: " + "; ".join(doc["errors"][:5]))

    print(f"== {args.workload} (seed {args.seed}, {'traced' if traced else 'untraced'}, "
          f"{os.cpu_count()} host cpus, repetitions: {len(doc['reps'])}) ==")
    metrics = {}
    if traced:
        layers = doc["layers"]
        for m in SPEC["per_layer"]:
            v = float(layers.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            print(f"  {m['name']:<36} {v:>16.6g} {m['unit']}")
    else:
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name, (v, n) in end_to_end(doc).items():
            metrics[name] = {"value": v, "unit": units[name]}
            print(f"  {name:<22} {v:>14.6g} {units[name]:<10} (median of {n})")
        for name, v in doc["extras"].items():
            print(f"  {name:<22} {v:>14.6g}")
        lat = [x for r in doc["reps"] for x in r["latencies_ms"]]
        print(f"  {'job_latency_p50_ms':<22} {median(lat):>14.6g} ms         (median of {len(lat)})")
        p, v = tail_percentile(lat)
        if p is not None and p > 50:
            print(f"  {'job_latency_tail_ms':<22} {v:>14.6g} ms         (p{p} of {len(lat)})")
    attempted, failed = doc["attempted"], doc["failed"]
    print(f"  {'error_rate':<22} {failed / max(1, attempted):>14.6g} "
          f"({failed} of {attempted} checks failed)")
    for e in doc["errors"][:20]:
        print(f"  FAILED: {e}")
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
