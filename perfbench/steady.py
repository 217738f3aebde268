#!/usr/bin/env python3
"""Steadiness mode: run one workload N times, each with another seed, and
print every metric's median and quartiles next to its bound.

    python3 perfbench/steady.py --workload group-live [--runs 10]
        [--first-seed 1] [--seconds S] [--trace 0|1]

Run it from the root of the repository. It reads BENCHMARK.json for the
command, the run length and the bounds, and uses the same quartiles as
Python's statistics.quantiles(values, n=4). A spread above a third of its
bound is marked '!'; above the bound, 'FAIL'.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, shares, wrong = {}, set(), 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        lines = out.stdout.strip().splitlines()
        health = [l[2:] for l in lines if l.startswith("# ")]
        result = json.loads(lines[-1])
        wrong += not result["correct"]
        shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} | " + "; ".join(health), flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {args.seconds} s, trace={args.trace}, "
          f"incorrect runs: {wrong}, distinct failed shares: {len(shares)}")
    print(f"{'metric':34} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, (unit, vals) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = "FAIL" if share > bound else ("!" if share > bound / 3 else "")
        print(f"{name:34} {unit:>6} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{100 * share:7.2f}% {'' if bound is None else bound:>6} {mark}")


if __name__ == "__main__":
    main()
