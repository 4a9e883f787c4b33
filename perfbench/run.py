#!/usr/bin/env python3
"""End-to-end benchmark of the checkpoint pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench/bench.ml) and the libraries it links
from source with dune, runs one measurement of the named workload, checks
the result, and prints it as the last line of standard output: one JSON
object with the keys "correct", "attempted", "failed" and "metrics". With
--trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json,
with --trace 1 the per-layer ones. See perfbench/README.md for the
workloads and what each metric measures.

Exits non-zero, without printing a result, when the build or the run fails.
Everything it writes stays inside the checkout: dune's _build directory and
a scratch directory for the stores under test, removed afterwards.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 110


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found (install the OCaml toolchain with dune)")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", TARGET]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail(f"build failed (exit {r.returncode})")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", scratch]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    if r.returncode != 0:
        fail(f"run failed (exit {r.returncode})")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"unparseable result: {lines[-1]!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys: {sorted(result)}")
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        fail(f"metrics {sorted(result['metrics'])} differ from {sorted(want)}")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be between 1 and 600")
    t0 = time.monotonic()
    build()
    print(f"perfbench: build {time.monotonic() - t0:.1f} s", file=sys.stderr)
    result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
