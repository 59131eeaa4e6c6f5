#!/usr/bin/env python3
"""Build and run the DBT benchmark from the root of a checkout.

    python3 dbtbench/run.py --workload steady|cold|fleet \
        --seed N --seconds S --trace 0|1

Builds dbtbench/bench.exe with dune (into $CARGO_TARGET_DIR, default
.bench_build), runs it, and passes its output through. The last stdout
line is the result object; it is checked against BENCHMARK.json's
metric catalogue before this script exits 0. Scratch files live under
.bench_state and are removed when the run ends. See dbtbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("steady", "cold", "fleet")
RUN_LIMIT_S = 170  # the run (after the build) must end well within 180 s
BUILD_LIMIT_S = 600  # a first run, build included, must end within 900 s


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(want)))
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("BENCHMARK.json")):
        fail("run from the root of a full checkout (dune-project, lib/ and "
             "BENCHMARK.json not all found here)")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune_command() + ["build", "--root", ".", "--build-dir", build_dir,
                              "./dbtbench/bench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if build.returncode != 0:
        fail("build failed", 1)

    state_dir = ".bench_state"
    run_dir = os.path.join(state_dir, "run-%d" % os.getpid())
    os.makedirs(run_dir, exist_ok=True)
    # runtime_events ring files go to the run's scratch directory
    env["OCAML_RUNTIME_EVENTS_DIR"] = run_dir
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    exe = os.path.join(build_dir, "default", "dbtbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(nproc), "--state-dir", state_dir, "--run-dir", run_dir]
    started = time.monotonic()
    try:
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_LIMIT_S, 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = child.stdout.rstrip("\n").split("\n")
    if child.returncode != 0:
        sys.stderr.write(child.stdout)
        fail("benchmark exited with code %d" % child.returncode, child.returncode)
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(child.stdout)
        fail("malformed result line: %s" % e, 1)
    print("\n".join(lines))
    print("run.py: %.1f s" % (time.monotonic() - started), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
