#!/usr/bin/env python3
"""The relacc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a relacc checkout. It builds
perfbench/relacc_perf.exe with dune, then runs repetitions of the
workload, each in a fresh process, for about S seconds. It checks
every output and prints a readable summary, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics. The exit code is
0 only when every output check passed. perfbench/README.md describes
the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "relacc_perf.exe")
WORK = os.path.join("perfbench", "_work")
SPEC = "BENCHMARK.json"
MIN_SETUPS = 5
# About the seconds one repetition takes on the 2-core host the
# benchmark was sized on; a serve repetition is a 5-second open loop.
# A run makes a fixed number of repetitions, about --seconds worth, and
# pools their samples: a count that followed the clock would change
# how deep the pooled tail reaches whenever the host's speed changed.
# Pooling beat medians over repetitions on the same batch-clean
# samples: across 8 runs of 8 repetitions the spread (IQR over median)
# of work_per_s was 0.072 against 0.097, of p50_ms 0.074 against
# 0.099, and of tail_ms 0.034 against 0.101.
REP_SECONDS = {"batch-clean": 3.75, "session-feed": 15.0, "serve": 5.0}
# Everything must be over well within 180 seconds.
HARD_LIMIT_S = 165


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run this from the root of a relacc checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/relacc_perf.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed")


def child(workload, seed, deadline, *flags):
    """One repetition in a fresh process; returns its JSON result."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [EXE, workload, "--seed", str(seed), "--work", WORK] + list(flags)
    env = dict(os.environ, TMPDIR=os.path.abspath(WORK))
    budget = deadline - time.monotonic()
    if budget < 5:
        fail("out of time before %s" % " ".join(cmd))
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail("timed out: %s" % " ".join(cmd))
    if p.stderr:
        sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(cmd), p.returncode))
    return json.loads(lines[-1])


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile). Below eleven samples no percentile
    qualifies; the median stands in and the percentile reads 50."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_reps(args, deadline):
    """The run's repetitions, then the checks."""
    w, seed, trace = args.workload, args.seed, args.trace == 1
    inputs = ["--held-out"] if args.held_out else []
    flags = (["--trace"] if trace else []) + inputs
    reps, setups = [], []
    for j in range(max(2, round(args.seconds / REP_SECONDS[w]))):
        r = child(w, seed * 1000 + j, deadline, *flags)
        reps.append(r)
        setups.append(r["setup_ms"])
    problems = [p for r in reps for p in r["problems"]]
    if w == "batch-clean":
        # The same corpus through Cleaner.clean itself, in a fresh
        # process: every report must be byte-identical.
        again = child(w, seed, deadline, "--via-clean", *inputs)
        setups.append(again["setup_ms"])
        problems += again["problems"]
        if len({r["digest"] for r in reps + [again]}) != 1:
            problems.append("batch-clean report digests differ between "
                            "runs on the same corpus")
    while len(setups) < MIN_SETUPS:
        r = child(w, seed * 1000 + len(setups), deadline, "--setup-only",
                  *inputs)
        setups.append(r["setup_ms"])
    return reps, setups, problems


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end(reps, setups, attempted, failed):
    """Latencies and work pool every repetition's samples; ok_frac
    counts every operation of the run; the other metrics are medians
    over repetitions."""
    lat = [x for r in reps for x in r["lat_ms"]]
    tail_ms, tail_pct = tail(lat)
    values = {
        "setup_s": statistics.median(setups) / 1000.0,
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
        "ok_frac": 1.0 - failed / attempted,
        "er_pair_f1": median_of(reps, "f1"),
        "work_per_s": 1000.0 * sum(r["work_units"] for r in reps)
        / sum(r["work_ms"] for r in reps),
        "p50_ms": statistics.median(lat),
        "tail_ms": tail_ms,
    }
    notes = ["tail_ms: p%.2f of %d samples from %d repetitions"
             % (tail_pct, len(lat), len(reps)),
             "setup_s: median of %d set-ups" % len(setups)]
    return values, notes


def per_layer(reps, names):
    """Medians over repetitions; a layer the workload never reached
    reads 0."""
    values = {}
    for name in names:
        xs = [r["layers"][name] for r in reps if name in r["layers"]]
        values[name] = statistics.median(xs) if xs else 0.0
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="batch-clean, session-feed and serve on their "
                    "held-out inputs")
    args = ap.parse_args()
    deadline = time.monotonic() + HARD_LIMIT_S
    if not os.path.isfile(SPEC):
        fail("no %s here" % SPEC)
    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in [wl["name"] for wl in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    build()
    reps, setups, problems = run_reps(args, deadline)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in metrics]
    attempted = sum(r["attempted"] for r in reps)
    # A failed output check fails an operation too.
    failed = min(attempted, sum(r["failed"] for r in reps) + len(problems))
    if args.trace:
        values, notes = per_layer(reps, names), []
    else:
        values, notes = end_to_end(reps, setups, attempted, failed)
    first = reps[0]
    print("workload %s  seed %d  repetitions %d  nproc %d  "
          "recommended domains %d  OCaml %s"
          % (args.workload, args.seed, len(reps), os.cpu_count() or 0,
             first["domains"], first["ocaml"]))
    for m in metrics:
        print("  %-44s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    for note in notes:
        print("  " + note)
    for p in problems:
        print("  CHECK FAILED: " + p)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
