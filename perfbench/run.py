#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the paper pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds perfbench/ (an
optimized CMake build of the repository's libraries plus the benchmark program) under
.bench_build/perfbench, then runs one measurement. The last line of
standard output is the benchmark's result object; build output goes to
standard error. README.md describes the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
OUT = os.path.join(".bench_build", "perfbench-out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def call(cmd, timeout):
    """Run cmd with its output on stderr; True when it exits with 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return False


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not call(configure, BUILD_TIMEOUT_S):
        # A cache left by another checkout path or generator: start over.
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            return False
        shutil.rmtree(BUILD, ignore_errors=True)
        if not call(configure, BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return call(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
