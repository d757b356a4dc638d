#!/usr/bin/env python3
"""Same-host A/B comparison of two source trees on one workload.

    python3 rotabench/compare.py --base ../parent --candidate . \\
        --workload degrade_timeline --pairs 10

Each tree is a checkout holding rotabench/ (build it once with run.py, or
let the first pair build it). The script runs `--pairs` pairs; pair i uses
seed `--seed + i` on both sides, and the side that runs first alternates
from pair to pair. For every metric it prints each side's median and
quartiles, the candidate's win fraction (ties count for neither side) and
whether the gain rule holds: wins in at least 9 of 10 pairs and medians
apart by more than the base's own quartile spread. Directions come from
the base tree's BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree, args, seed):
    command = [sys.executable, str(tree / "rotabench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"compare: {tree} failed on seed {seed} (exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"compare: {tree} reported incorrect output on seed {seed}",
              file=sys.stderr)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--candidate", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args()
    base, cand = args.base.resolve(), args.candidate.resolve()

    spec = json.loads((base / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    sides = {"base": [], "candidate": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("base", base), ("candidate", cand)]
        if i % 2 == 1:
            order.reverse()
        for name, tree in order:
            sides[name].append(run(tree, args, seed))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, "
              f"{order[0][0]} first)", file=sys.stderr)

    print(f"workload {args.workload}, {args.pairs} pairs, "
          f"{args.seconds:g} s per run")
    print(f"{'metric':26s} {'base q1/med/q3':>36s} {'candidate q1/med/q3':>36s}"
          f" {'wins':>6s}  gain")
    for metric in sides["base"][0]["metrics"]:
        b = [r["metrics"][metric]["value"] for r in sides["base"]]
        c = [r["metrics"][metric]["value"] for r in sides["candidate"]]
        sign = 1.0 if better.get(metric, "lower") == "higher" else -1.0
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        bq, cq = quartiles(b), quartiles(c)
        gain = (wins >= 0.9 * len(b)
                and sign * (cq[1] - bq[1]) > bq[2] - bq[0])
        fmt = lambda q: "/".join(f"{v:.5g}" for v in q)
        print(f"{metric:26s} {fmt(bq):>36s} {fmt(cq):>36s}"
              f" {wins / len(b):6.2f}  {'yes' if gain else 'no'}")
    for name, results in sides.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{name}: {failed} of {attempted} operations failed")


if __name__ == "__main__":
    main()
