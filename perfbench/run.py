#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the analyser libraries from src/ plus the
hb_perfbench program) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed.  Build
output goes to stderr.  The
program's standard output is passed through unchanged; its last line is the
result object.  Exits non-zero, printing no result, when the sources are
missing, the build fails or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("whatif_commit", "replica_reads")
RUN_TIMEOUT_S = 170


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build; returns the hb_perfbench path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: analyser sources not found under %s/src" % ROOT)
    out = build_root()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "hb_perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "hb_perfbench")


def run(binary, workload, seed, seconds, trace):
    """Run hb_perfbench once; returns (stdout text, result dict)."""
    out = build_root()
    work = os.path.join(out, "work-%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    if trace:
        trace_file = os.path.join(out, "trace-%s-seed%d.jsonl" % (workload, seed))
        if os.path.exists(trace_file):
            os.remove(trace_file)
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: hb_perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: hb_perfbench printed nothing")
    return proc.stdout, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    text, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
