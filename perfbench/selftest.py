#!/usr/bin/env python3
"""Benchmark self-test: run each workload briefly, twice, on one seed.

    python3 perfbench/selftest.py [--seed N]

Each workload runs a fixed number of operations twice with tracing off
and twice with tracing on.  Every run must pass all of its checks and
print exactly the metrics (names and units) BENCHMARK.json declares, and
the count metrics must repeat exactly between the two runs.  Run it from
the root of a checkout; it exits 1 on the first violation.
"""
import argparse
import json
import subprocess
import sys

# One full draw block of each workload, so every design and request
# kind occurs (serve-mixed: one 89-request block on each of 2
# connections).
OPS = {"compile-cold": 188, "sim-batch": 100, "serve-mixed": 178}


def attempted(workload, trace):
    # A traced serve-mixed run makes two passes, one against a server
    # without --trace and one against a server with it.
    return OPS[workload] * (2 if workload == "serve-mixed" and trace == "1" else 1)

# Metrics that count work rather than time it.
COUNTS = {
    "0": ["verilog_bytes", "design_luts", "design_ffs"],
    "1": ["pass.canonicalize.rewrites", "pass.unroll.ops_after", "ir.parser.bytes",
          "ir.printer.bytes", "verilog.pretty.bytes", "codegen.emit.modules",
          "rtl.sim.assigns_evaluated", "rtl.sim.partitions", "cache.job.hits",
          "cache.job.misses", "cache.stores", "cache.link_hits", "cache.hit_ratio",
          "journal.appends", "journal.marks", "protocol.request_bytes"],
}


def run(workload, seed, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "60", "--trace", trace, "--ops", str(OPS[workload])],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s trace=%s: exit %d\n%s" % (workload, trace, out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in OPS:
        for trace in ("0", "1"):
            a, b = run(workload, seed, trace), run(workload, seed, trace)
            for r in (a, b):
                if not r["correct"] or r["failed"] != 0 or r["attempted"] != attempted(workload, trace):
                    sys.exit("%s trace=%s: checks failed: correct=%s attempted=%d failed=%d" % (
                        workload, trace, r["correct"], r["attempted"], r["failed"]))
                units = {k: v["unit"] for k, v in r["metrics"].items()}
                if units != declared[trace]:
                    sys.exit("%s trace=%s: metrics differ from BENCHMARK.json" % (workload, trace))
            for name in COUNTS[trace]:
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                if va != vb:
                    sys.exit("%s trace=%s: %s did not repeat: %r vs %r" % (
                        workload, trace, name, va, vb))
            print("ok  %-13s trace=%s  %d ops, counts repeat" % (workload, trace, OPS[workload]),
                  flush=True)
    print("self-test passed")


if __name__ == "__main__":
    main()
