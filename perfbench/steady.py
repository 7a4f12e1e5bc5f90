#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload N times, each with another seed, and prints for every
metric its median, quartiles and quartile spread as a share of the median,
next to the bound BENCHMARK.json gives it. With --sets 2 it runs two such
sets and also reports how far the second median moved from the first.

Run from the repository root:

    python3 perfbench/steady.py --workload hot-mix --runs 10
    python3 perfbench/steady.py --workload suite-scan --runs 5 --sets 2
    python3 perfbench/steady.py --workload hot-mix --runs 3 --trace 1

Exits 1 when a run fails, answers wrongly, or (for end-to-end metrics) a
spread or a median shift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    began = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    took = time.monotonic() - began
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"run failed: seed {seed}, exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"wrong answers or failed operations: seed {seed}")
    return result, took


def run_set(command, workload, seeds, seconds, trace):
    values, shares = {}, set()
    for seed in seeds:
        r, took = run_once(command, workload, seed, seconds, trace)
        shares.add((r["failed"] / r["attempted"]))
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"  seed {seed}: attempted {r['attempted']} failed {r['failed']}, "
              f"{took:.1f} s", flush=True)
    return values, shares


def summary(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    opts = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = opts.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    if opts.trace:
        bounds = {}
    ok = True
    medians = []
    for s in range(opts.sets):
        first = opts.first_seed + s * opts.runs
        seeds = list(range(first, first + opts.runs))
        print(f"set {s + 1}: {opts.workload}, seeds {seeds[0]}..{seeds[-1]}, "
              f"{seconds} s, trace {opts.trace}", flush=True)
        values, shares = run_set(spec["command"], opts.workload, seeds, seconds,
                                 opts.trace)
        print(f"  failed share(s): {sorted(shares)}")
        meds = {}
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med, q1, q3, spread = summary(vals)
            meds[name] = med
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag, ok = "  OVER", False
            elif bound is not None and spread > bound / 3:
                flag = "  >1/3"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:28} {med:14.4f} {q1:14.4f} {q3:14.4f} "
                  f"{spread:8.4f} {b:>6}{flag}")
        medians.append(meds)
    if len(medians) == 2:
        print("median shift, set 2 against set 1 (positive = worse):")
        for name, m in bounds.items():
            a, b = medians[0].get(name), medians[1].get(name)
            if not a:
                continue
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = ""
            if worse > m["bound"]:
                flag, ok = "  OVER", False
            print(f"  {name:28} {a:14.4f} -> {b:14.4f}  {worse:+.4f} "
                  f"(bound {m['bound']:.2f}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
