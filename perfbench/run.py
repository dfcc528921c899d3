#!/usr/bin/env python3
"""Build the simulator's host benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 30 --trace 0

Configures perfbench/CMakeLists.txt (which compiles the library from src/)
in Release mode under $CARGO_TARGET_DIR/perfbench (default .bench_build),
builds das_perfbench, then runs it on the workload. The program's standard
output is passed through; its last line is the JSON result. Build output
goes to standard error. Exits non-zero, without a result, if the build or
the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-matrix", "data-verify", "tenant-storm")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure and build das_perfbench; return the binary's path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "das_perfbench", "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(out, "das_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20120901)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--arrival-seed", type=int,
                        help="tenant-storm: a held-out arrival schedule")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, RuntimeError) as error:
        print("run.py: %s" % error, file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        binary,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--records=" + os.path.join(HERE, "records"),
        "--out=" + out_dir,
    ]
    if args.arrival_seed is not None:
        command.append("--arrival-seed=%d" % args.arrival_seed)
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
