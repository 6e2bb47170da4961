#!/usr/bin/env python3
"""Run every questbench workload k times and report how steady each metric is.

Usage (from the repository root):

    python3 questbench/steady.py [--runs K] [--seed S] [--same-seed] [--seconds N]
                                 [--trace 0|1] [--workloads a,b,...]

Run k uses seed S+k-1 (or S every time with --same-seed), with the command,
workloads, run length and bounds in BENCHMARK.json. The workloads take turns
(run 1 of each, then run 2 of each, ...), so a change in host speed during a
set reaches every workload alike. For every metric it prints the median, the
first and third quartile (Python's statistics.quantiles with n=4), the spread
(IQR / median) and that spread as a share of the metric's bound. It exits
non-zero if any run fails, prints no result, or reports a wrong answer; with
K=1 it is the one command that runs all workloads.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed, args):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        print(f"{workload} seed={seed}: FAILED (exit {proc.returncode})")
        print("\n".join(lines[-15:]))
    if result is not None:
        shown = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
        print(f"{workload} seed={seed}: {took:.0f} s, attempted={result['attempted']} "
              f"failed={result['failed']} | {shown}", flush=True)
    return ok, result


def summary(workload, metrics, runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"\n{workload}: {len(runs)} runs, attempted={attempted} failed={failed}")
    print(f"  {'metric':<30} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6} {'share':>6}")
    for m in metrics:
        v = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
        if not v:
            print(f"  {m['name']:<30} no values")
            continue
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
        bound = m.get("bound")
        share = f"{spread / bound:6.2f}" if bound else "     -"
        print(f"  {m['name']:<30} {m['unit']:>6} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.4f} {bound if bound else '-':>6} {share}")


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    metrics = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    ok = True
    for k in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + k
        for workload in workloads:
            run_ok, result = run_once(spec, workload, seed, args)
            ok = ok and run_ok
            if result is not None:
                results[workload].append(result)
    for workload in workloads:
        summary(workload, metrics, results[workload])
    print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
