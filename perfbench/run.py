#!/usr/bin/env python3
"""Run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (the build directory is
$CARGO_TARGET_DIR when set, dune's default otherwise; the shared dune
cache is off, so nothing is written outside the checkout), runs it, adds
provenance (commit, `ocaml -version`, nproc, date) to its `_meta` line,
checks that it printed exactly the metrics BENCHMARK.json lists for the
mode, and passes its output through: the result object is the last line.
Exits non-zero, without printing a result, when anything fails.
"""

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args):
    commit = os.environ.get("BENCH_COMMIT")
    # only this checkout's own repository, never one enclosing it
    if not commit and command_output(
            ["git", "rev-parse", "--show-toplevel"]) == os.getcwd():
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "commit": commit or "unknown",
        "ocaml": command_output(["ocaml", "-version"]) or "unknown",
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": args.seed,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if not os.path.exists("dune-project"):
        fail("not the root of a source checkout (no dune-project)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", build_dir,
         "--cache=disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")

    lines = run.stdout.splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        fail("printed metrics differ from BENCHMARK.json")
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json")

    for line in lines[:-1]:
        if line.startswith('{"_meta":'):
            meta = json.loads(line)
            meta["_meta"]["provenance"] = provenance(args)
            line = json.dumps(meta)
        print(line)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
