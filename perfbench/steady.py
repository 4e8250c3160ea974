#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload N times (seeds 1..N by default) and prints, for every
end-to-end metric, the median, the quartiles, the spread (interquartile
distance over the median) and whether that spread fits BENCHMARK.json's
bound, plus the share of failed operations.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --workload mm_cold --workload nest_cold
    python3 perfbench/steady.py --runs 10 --against ../parent-checkout

With ``--against DIR`` every seed is run on both checkouts, alternating
which runs first, and both sides are reported with the change in median.
Run it from the root of a checkout; it writes nothing outside
``.perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-3000:])
        raise SystemExit("run failed: %s seed %d in %s" % (workload, seed, root))
    return json.loads(r.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(label, results, spec):
    metrics = spec["end_to_end"]
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    bad = [r for r in results if not r["correct"]]
    print("%s: %d runs, failed share %s%s" % (label, len(results),
          ", ".join("%.6f" % s for s in shares), ", %d incorrect" % len(bad) if bad else ""))
    meds = {}
    for m in metrics:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med, q1, q3, spread = summary(vals)
        meds[m["name"]] = med
        fits = spread <= m["bound"] / 3 or m["name"] == "setup_s"
        print("  %-20s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f bound %.2f %s"
              % (m["name"], med, q1, q3, spread, m["bound"], "ok" if fits else "WIDE"))
    return meds


def main():
    ap = argparse.ArgumentParser(description="Run each workload N times and report spreads.")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--against", help="a second checkout to compare with, run alternately")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    roots = ["."] + ([args.against] if args.against else [])
    for w in workloads:
        results = {root: [] for root in roots}
        for i in range(args.runs):
            seed = 1 + i
            order = roots if i % 2 == 0 else roots[::-1]
            for root in order:
                results[root].append(run_once(root, w, seed, seconds))
        meds = report("%s (this checkout)" % w, results["."], spec)
        if args.against:
            base = report("%s (%s)" % (w, args.against), results[args.against], spec)
            for m in spec["end_to_end"]:
                b, c = base[m["name"]], meds[m["name"]]
                print("  change %-20s %+.3f" % (m["name"], (c - b) / b if b else 0.0))


if __name__ == "__main__":
    main()
