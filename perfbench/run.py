#!/usr/bin/env python3
"""Build and run the st-inspector benchmark.

    python3 perfbench/run.py --workload ior-batch|narrow|live --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) built against the workspace crates by path,
into $CARGO_TARGET_DIR (default .bench_build). The last line of standard
output is the run's JSON result; result records and spans go to
$CARGO_TARGET_DIR/perfbench/. `--workload all` runs the three workloads
one after another and ends with a combined result line.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["ior-batch", "narrow", "live"]
HERE = os.path.dirname(os.path.abspath(__file__))


def commit():
    """The source commit, when the checkout is a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(target_dir):
    """Builds the benchmark binary; returns its path, or None on failure."""
    result = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=dict(os.environ, CARGO_TARGET_DIR=target_dir),
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        return None
    return os.path.join(target_dir, "release", "perfbench")


def run_one(binary, out_dir, workload, args, env):
    """Runs one workload, echoing its output; returns (exit code, last line)."""
    proc = subprocess.run(
        [
            binary,
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--out-dir",
            out_dir,
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    out_dir = os.path.join(target_dir, "perfbench")
    env = dict(os.environ, PERFBENCH_COMMIT=commit())

    if args.workload != "all":
        code, _ = run_one(binary, out_dir, args.workload, args, env)
        return code

    # All three: prefix each workload's metrics with its name.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, last = run_one(binary, out_dir, workload, args, env)
        worst = worst or code
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
