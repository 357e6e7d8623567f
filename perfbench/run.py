#!/usr/bin/env python3
"""Builds the wtam benchmark and runs one workload.

    python3 perfbench/run.py --workload pack --seed 1 --seconds 30 --trace 0

The wtam library, the wtam_serve/wtam_router fleet binaries and the
driver are built from the checkout's sources with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, with build
output on stderr. The driver's last line on stdout is the result object;
see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "pack", "pack-power", "serve-hot")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def step(command):
    """Runs one build step with its output on stderr: stdout carries only the result."""
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=False).returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(command))


def build():
    """Configures (once) and builds the benchmark; returns the build directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", out, "--parallel", str(os.cpu_count() or 1)])
    return out


def driver_command(out, workload, seed, seconds, trace, reference=None):
    return [
        os.path.join(out, "wtam_perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--bin-dir", out,
        "--reference", reference or os.path.join(HERE, "reference"),
        "--out-dir", os.path.join(out, "runs"),
    ]


def main():
    parser = argparse.ArgumentParser(description="Runs one workload of the wtam benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    command = driver_command(build(), args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.flush()
    os.execv(command[0], command)


if __name__ == "__main__":
    main()
