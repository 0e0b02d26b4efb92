#!/usr/bin/env python3
"""Build and run the end-to-end GeoGrid benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then runs
it. The benchmark's output passes through unchanged; its last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Cargo's
own output goes to standard error. `--workload all` runs every workload in
turn (query-hotspot, publish-moving, tcp-loopback).

Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["query-hotspot", "publish-moving", "tcp-loopback"]
RUN_TIMEOUT_S = 175


def commit():
    """The checkout's commit, when it is a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    res = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return res.returncode == 0


def run_one(binary, workload, args):
    cmd = [
        binary,
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--commit",
        commit(),
    ]
    sys.stdout.flush()
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return res.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    if not build(target):
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "geogrid-perfbench")
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code = run_one(binary, workload, args)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
