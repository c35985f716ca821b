#!/usr/bin/env python3
"""Run one workload of the benchmark over several seeds and print, per
metric, the median and the quartile spread (q3 - q1) / median as Python's
statistics.quantiles(values, n=4) gives them, next to the metric's bound.

Run from the repository root:

    python3 perfbench/spread.py --workload fanin_flat --seeds 1 2 3 4 5

A spread above a third of its bound is marked with "!". Every run's
result line is appended to --log (default .perfbench-work/spread.jsonl).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, help="defaults to BENCHMARK.json's run_seconds")
    parser.add_argument("--log", default=os.path.join(".perfbench-work", "spread.jsonl"))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)

    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        with open(args.log, "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": args.trace, "result": result}) + "\n")
        if not result["correct"]:
            sys.exit(f"seed {seed}: result not correct: {lines[-1]}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {result['attempted']} epochs", file=sys.stderr)

    print(f"{'metric':34} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        flag = "!" if bound is not None and spread > bound / 3 else " "
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"{name:34} {med:14.4f} {spread:8.4f} {shown:>6} {flag}")


if __name__ == "__main__":
    main()
