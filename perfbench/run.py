#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload band_paced --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The C++ harness (perfbench/src) is built from the engine sources in src/
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first
use. One workload prints the harness output unchanged: a metric table, a
context line and, last, the result JSON. `--workload all` runs every
workload and ends with one combined result line. The exit code is non-zero
when a run fails its reference check, counts a pipeline anomaly, or cannot
be built.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["band_paced", "band_saturate", "equi_sharded"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the harness; returns the binary path."""
    engine_header = os.path.join(ROOT, "src", "core", "join_session.hpp")
    if not os.path.isfile(engine_header):
        sys.stderr.write("perfbench: engine sources (src/) not found\n")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", bdir, "-j", "2"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(bdir, "perfbench")


def run_one(binary, workload, args, trace_dir, capture):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else None)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        sys.exit(3)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="flip the reference hash; the run must fail")
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    sys.stdout.flush()

    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args, trace_dir, capture=False)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args, trace_dir, capture=True)
        sys.stdout.write("== %s\n%s" % (workload, out))
        worst = max(worst, code)
        lines = out.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
