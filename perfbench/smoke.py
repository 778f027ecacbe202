#!/usr/bin/env python3
"""Smoke test of the benchmark itself: short runs of every workload.

    python3 perfbench/smoke.py [--seed N]

Run from the repository root.  For each workload it makes one untraced run
and two traced runs with the same seed, and asserts that

  * every run is correct and reports no failed operation;
  * every metric named in BENCHMARK.json appears, with its declared unit and
    a sample count (hb_perfbench's `metric <name> <value> <unit> n=<count>`
    lines);
  * each tail percentile leaves at least ten samples beyond it;
  * every count metric repeats exactly across the two traced runs.

Exits non-zero on the first failed assertion.
"""
import argparse
import json
import math
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

# Long enough for 40 commits (about 30 ms each) or 40 remaps: a tail needs them.
SECONDS = {"whatif_commit": 3, "replica_reads": 4}
QUANTILES = {"p75": 0.75, "p90": 0.9, "p99": 0.99, "p99.9": 0.999}
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+) n=(\d+)(?: (\S+))?$")


def parse_metrics(text):
    out = {}
    for line in text.splitlines():
        m = METRIC_LINE.match(line)
        if m:
            out[m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3),
                               "n": int(m.group(4)), "note": m.group(5) or ""}
    return out


def check(cond, what):
    if not cond:
        sys.exit("smoke: FAILED: " + what)


def check_run(workload, text, result, declared):
    check(result["correct"] and result["failed"] == 0,
          "%s: correct=%s failed=%d" % (workload, result["correct"], result["failed"]))
    check(set(result["metrics"]) == set(declared),
          "%s: metric set differs from BENCHMARK.json: %s" % (
              workload, sorted(set(result["metrics"]) ^ set(declared))))
    printed = parse_metrics(text)
    for name, unit in declared.items():
        check(name in printed, "%s: %s not printed with a sample count" % (workload, name))
        check(printed[name]["unit"] == unit == result["metrics"][name]["unit"],
              "%s: %s unit %s, declared %s" % (workload, name, printed[name]["unit"], unit))
        check(printed[name]["n"] >= 1, "%s: %s has no samples" % (workload, name))
        if name.endswith(".tail"):
            q = QUANTILES.get(printed[name]["note"])
            n = printed[name]["n"]
            check(q is not None and n - math.ceil(q * n) >= 10,
                  "%s: %s (%s of %d samples) has fewer than 10 beyond it" % (
                      workload, name, printed[name]["note"], n))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    spec = json.load(open(os.path.join(bench.ROOT, "BENCHMARK.json")))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    binary = bench.build()
    for name in bench.WORKLOADS:
        seconds = SECONDS[name]
        text, result = bench.run(binary, name, args.seed, seconds, False)
        check_run(name, text, result, end_to_end)
        traced = []
        for _ in range(2):
            text, result = bench.run(binary, name, args.seed, seconds, True)
            check_run(name, text, result, per_layer)
            traced.append(result["metrics"])
        for c in counts:
            a, b = traced[0][c]["value"], traced[1][c]["value"]
            check(a == b, "%s: count %s differs across runs: %r vs %r" % (name, c, a, b))
        print("smoke: %s ok (%d end-to-end, %d per-layer metrics, %d counts repeat)" % (
            name, len(end_to_end), len(per_layer), len(counts)), flush=True)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
