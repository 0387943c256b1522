#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a workspace of its own that depends on the
repository's crates by path), then runs the workload in a fresh process. With
`--trace 0` the result carries the end-to-end metrics `BENCHMARK.json`
declares; with `--trace 1` it runs the workload twice on the same seed, once
untraced and once with the span recorder installed, each in its own process,
and carries the per-layer metrics plus `trace.overhead`, the traced median op
latency over the untraced one, minus one.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A per-layer metric that does not apply to
the workload reads 0 and is named on a `not applicable` line before it.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
# Scratch directory the workload process creates in the working directory.
SCRATCH = ".perfbench"
DEADLINE_S = 175.0


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path, as cargo reports it."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest,
           "--message-format=json-render-diagnostics"]
    # Diagnostics go to stderr, so the last stdout line stays the result.
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail("building perfbench failed")
    for line in done.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg["target"]["name"] == "perfbench":
            if msg.get("executable"):
                return msg["executable"]
    fail("cargo reported no perfbench executable")


def run_once(exe, args, trace, started):
    """Runs one workload process; returns the parsed result line."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=max(DEADLINE_S - (time.monotonic() - started), 1.0))
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        # A killed process cannot remove its own scratch stores.
        for path in glob.glob(os.path.join(SCRATCH, f"*-{child.pid}-*")):
            shutil.rmtree(path, ignore_errors=True)
        fail(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if child.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {child.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    exe = build()
    started = time.monotonic()

    result = run_once(exe, args, False, started)
    if args.trace:
        untraced = result
        result = run_once(exe, args, True, started)
        result["correct"] = result["correct"] and untraced["correct"]
        traced_p50 = result["metrics"]["latency_p50_ms"]
        result["metrics"]["trace.overhead"] = traced_p50 / untraced["metrics"]["latency_p50_ms"] - 1.0

    measured = result["metrics"]
    metrics, missing = {}, []
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = measured.get(m["name"])
        if value is None:
            missing.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing and not args.trace:
        fail(f"end-to-end metrics missing: {', '.join(missing)}")
    if missing:
        print(f"not applicable to {args.workload}: {', '.join(missing)}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
