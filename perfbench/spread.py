#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's median and
spread (interquartile range over median, as statistics.quantiles(n=4) gives
the quartiles). Run from the repository root:

    python3 perfbench/spread.py --workload pclht-synth --seeds 1-5 --seconds 20 --trace 0
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    for seed in seeds_of(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':34s} {'median':>12s} {'spread':>8s}  values")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:34s} {med:12.6g} {spread:8.3f}  " + " ".join(f"{x:.4g}" for x in v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
