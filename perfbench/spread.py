#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

For every metric: the median of the runs, the quartile spread
(Q3 - Q1) / median as Python's statistics.quantiles(n=4) gives it, and
the bound BENCHMARK.json fixes for it.  Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(a.seeds):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", a.trace],
            capture_output=True, text=True, check=True).stdout.strip().splitlines()
        result = json.loads(out[-1])
        line = " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            line if a.trace == "0" else ""), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  <-- over a third of the bound" if spread > bound / 3 else ""
        print("%-40s median %-14.6g spread %6.2f%%  bound %s%s" % (
            name, med, 100 * spread, "-" if bound is None else "%g" % bound, flag))
    if a.trace == "0":
        print("largest spread / bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    sys.exit(main())
