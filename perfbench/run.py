#!/usr/bin/env python3
"""Layered service benchmark for the CST scheduling service.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-1k --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe into .bench_build, computes the seed's reference
outcomes (cached in .bench_build/perfbench-refs), then:

  --trace 0  repeats the workload's fixed job list, each repetition in a
             fresh process, until --seconds have passed and at least three
             repetitions counted, and reports the end-to-end metrics;
  --trace 1  runs the list once on the service's domain pool and once
             traced, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Everything else goes to standard error.
See perfbench/NOTES.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "main.exe")

# Workload and metric names and units come from the benchmark's
# definition at the repository root.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

MIN_REPS = 3
# One invocation must end within 180 s of its build; keep a margin.
BUDGET_S = 170.0
# An open-loop repetition that ran invalid is repeated, at most this often.
MAX_INVALID = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--display", "quiet", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        log(r.stdout[-4000:])
        fail("build failed (this benchmark needs the repository's libraries)")


def worker(deadline, *args):
    """Runs main.exe with the given arguments; returns its last stdout line
    parsed as JSON.  Its stderr passes through."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time")
    try:
        r = subprocess.run([EXE, *args], cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("worker %s timed out" % args[0])
    if r.returncode != 0:
        fail("worker %s exited with code %d" % (args[0], r.returncode))
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def references(common, deadline):
    """Computes the seed's reference table, unless the file already holds
    it."""
    worker(deadline, "refs", *common)


def nearest_rank(sorted_xs, p):
    return sorted_xs[max(0, -(-p * len(sorted_xs) // 100) - 1)]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def timed_reps(common, deadline, seconds):
    reps, invalid = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        done = len(reps) + len(invalid)
        if len(reps) >= MIN_REPS and elapsed >= seconds:
            break
        if len(invalid) >= MAX_INVALID and not reps:
            break
        if done > 0 and time.monotonic() + elapsed / done > deadline:
            break
        r = worker(deadline, "timed", *common)
        (invalid if r["invalid"] else reps).append(r)
        if r["invalid"]:
            log("repetition not counted: " + r["invalid"])
    return reps, invalid


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    deadline = time.monotonic() + BUDGET_S
    refs_dir = os.path.join(BUILD, "perfbench-refs")
    scratch = os.path.join(BUILD, "perfbench-scratch", str(os.getpid()))
    os.makedirs(refs_dir, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    refs = os.path.join(refs_dir, "%s-%d.refs" % (a.workload, a.seed))
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--refs", refs, "--scratch", scratch]
    try:
        references(common, deadline)
        if a.trace == 0:
            reps, invalid = timed_reps(common, deadline, a.seconds)
            if not reps:
                fail("no valid repetition")
            runs = reps + invalid
            values = {k: [r["e2e"][k] for r in reps] for k, _ in END_TO_END}
            log("%s seed %d: %d repetitions counted, %d not counted"
                % (a.workload, a.seed, len(reps), len(invalid)))
            for k, unit in END_TO_END:
                q1, med, q3 = quartiles(values[k])
                log("  %-16s median %12.4f  q1 %12.4f  q3 %12.4f  %s"
                    % (k, med, q1, q3, unit))
            metrics = {k: {"value": statistics.median(values[k]), "unit": u}
                       for k, u in END_TO_END}
            # Percentiles pool the jobs of every counted repetition, so
            # that p95 rests on many samples beyond it.
            pooled = sorted(x for r in reps for x in r["latency_ms"])
            for k, p in (("latency_p50_ms", 50), ("latency_p95_ms", 95)):
                metrics[k]["value"] = nearest_rank(pooled, p)
            log("  pooled over %d jobs: p50 %.4f ms, p95 %.4f ms"
                % (len(pooled), metrics["latency_p50_ms"]["value"],
                   metrics["latency_p95_ms"]["value"]))
        else:
            reps, invalid = [], []
            while not reps and len(invalid) < MAX_INVALID:
                r = worker(deadline, "pool", *common)
                (invalid if r["invalid"] else reps).append(r)
            timed = (reps + invalid)[0]
            if not reps:
                log("timed run not valid: " + timed["invalid"])
            spans_dir = os.path.join(BUILD, "perfbench-trace")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, "%s-%d.tsv" % (a.workload, a.seed))
            traced = worker(deadline, "trace", *common, "--spans", spans)
            layer = dict(traced["layer"])
            layer.update(timed["layer"])
            layer["cst_service.pool_overhead_us"] = statistics.median(
                1e3 * s - t for s, t in zip(timed["service_ms"], traced["run_job_us"]))
            runs = reps + invalid + [traced]
            log("spans written to " + os.path.relpath(spans, ROOT))
            for k, unit in PER_LAYER:
                log("  %-42s %14.4f %s" % (k, layer.get(k, 0.0), unit))
            metrics = {k: {"value": layer.get(k, 0.0), "unit": u}
                       for k, u in PER_LAYER}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for f in r["failures"]:
            log("FAILED " + f)
    log("%s: %d jobs attempted, %d failed" % (a.workload, attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
