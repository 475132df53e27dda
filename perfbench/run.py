#!/usr/bin/env python3
"""Builds and runs the end-to-end maintenance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady --seed 17 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library sources under
src/ plus the driver) into .bench_build/ with CMake; later calls rebuild
only what changed. The driver prints every metric by name and unit and, as
its last line, one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every correctness gate passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the bookkeeping tests instead")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build("perfbench_test" if args.selftest else "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    # The shared evaluation pool sizes itself from the core count; one
    # thread keeps the measured work the same on every machine.
    env = dict(os.environ, WVM_THREADS="1")
    if args.selftest:
        return subprocess.run([binary], env=env).returncode

    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", os.path.join(BUILD, "work"),
        "--spans-out",
        os.path.join(BUILD, "traces", f"{args.workload}.spans.tsv"),
    ]
    # The driver is single-threaded. It is not pinned to a core: on a
    # shared machine a pinned process waits for its core whenever anything
    # else lands there, while the scheduler can move an unpinned one.
    try:
        run = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
