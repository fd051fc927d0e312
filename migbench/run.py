#!/usr/bin/env python3
"""Builds and runs the migration-window benchmark.

One run of one workload (the last stdout line is the JSON result):

    python3 migbench/run.py --workload tpcc-split --seed 1 --seconds 30 --trace 0

Every workload, end-to-end metrics as a table (exit 1 if any check fails):

    python3 migbench/run.py --all

The benchmark's own arithmetic tests:

    python3 migbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), span and WAL files to .bench_out. See migbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpcc-split", "tpcc-join", "kv-wire")
RUN_TIMEOUT_S = 175  # One run of the benchmark binary.


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("migbench: engine sources not found at %s/src" % ROOT,
              file=sys.stderr)
        sys.exit(1)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", *targets, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("migbench: build failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            sys.exit(1)
    return out


def bench_env():
    """The engine's knobs at their defaults, except the WAL sink's flush
    policy: kv-wire writes its log with fsync off (BF_WAL_FSYNC=0)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BF_")}
    env["BF_WAL_FSYNC"] = "0"
    return env


def run_one(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=bench_env(), timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("migbench: %s timed out after %ds" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def run_all(binary, seed, seconds):
    results = {}
    status = 0
    for w in WORKLOADS:
        code, out = run_one(binary, w, seed, seconds, 0, capture=True)
        lines = out.decode().strip().splitlines() if out else []
        if code != 0 or not lines:
            status = 1
        if lines:
            results[w] = json.loads(lines[-1])
    names = []
    for r in results.values():
        for name in r["metrics"]:
            if name not in names:
                names.append(name)
    ws = [w for w in WORKLOADS if w in results]
    print("%-16s %-6s" % ("metric", "unit") +
          "".join("%14s" % w for w in ws))
    for name in names:
        unit = next(results[w]["metrics"][name]["unit"] for w in ws
                    if name in results[w]["metrics"])
        cells = "".join(
            "%14.4f" % results[w]["metrics"][name]["value"]
            if name in results[w]["metrics"] else "%14s" % "-" for w in ws)
        print("%-16s %-6s%s" % (name, unit, cells))
    for w in ws:
        r = results[w]
        print("%s: correct=%s attempted=%d failed=%d" %
              (w, r["correct"], r["attempted"], r["failed"]))
        if not r["correct"]:
            status = 1
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a metric table")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the arithmetic self-test")
    args = ap.parse_args()
    if args.self_test:
        out = build(["migbench_stats_test"])
        return subprocess.run([os.path.join(out, "migbench_stats_test")],
                              timeout=RUN_TIMEOUT_S).returncode
    if not args.all and args.workload is None:
        ap.error("give --workload, --all or --self-test")
    binary = os.path.join(build(["migbench"]), "migbench")
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    code, _ = run_one(binary, args.workload, args.seed, args.seconds,
                      args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
