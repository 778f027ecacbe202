#!/usr/bin/env python3
"""Steadiness runner: repeat workloads over seeds and report each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Run from the repository root.  Each run is one `run.py` invocation with its
own seed.  Around every run the host canary `host.calib_ms` (a fixed ALU +
memory loop, `hb_perfbench --calib`) is timed before and after, so host
drift can be told apart from a change in the code: if the canary moved as
much as a metric did, the host moved.

Per workload and metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the quartile spread
(q3 - q1) / median, the range (max - min) / median, and -- for end-to-end
metrics -- the metric's bound from BENCHMARK.json with a verdict: "steady"
when the quartile spread is below a third of the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def calib(binary):
    out = subprocess.run([binary, "--calib"], stdout=subprocess.PIPE, text=True,
                         check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf"), \
        (max(values) - min(values)) / med if med else float("inf")


def main():
    spec = json.load(open(os.path.join(bench.ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    binary = bench.build()

    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        canary = []
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            before = calib(binary)
            _, result = bench.run(binary, workload, seed, args.seconds, args.trace)
            after = calib(binary)
            canary += [before, after]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: correct=%s failed=%d canary %.1f/%.1f ms  %s" % (
                workload, seed, result["correct"], result["failed"], before, after,
                " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(result["metrics"].items())
                         if k in bounds or args.trace)), flush=True)
        values["host.calib_ms"] = canary
        print("\n%s: %d runs, %d failed ops" % (workload, args.seeds, failed))
        print("  %-32s %12s %12s %12s %8s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "verdict"))
        rows = {}
        for name in sorted(values):
            med, q1, q3, iqr, rng = spread(values[name])
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "steady" if iqr < bound / 3 else (
                    "within bound" if iqr <= bound else "TOO NOISY")
            print("  %-32s %12.6g %12.6g %12.6g %8.4f %8.4f %6s  %s" % (
                name, med, q1, q3, iqr, rng, "" if bound is None else "%.2f" % bound,
                verdict))
            rows[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": iqr,
                          "range_share": rng, "values": values[name]}
        summary[workload] = rows
        print(flush=True)
    out = os.path.join(bench.build_root(), "steady-summary.json")
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print("wrote %s" % out)


if __name__ == "__main__":
    main()
