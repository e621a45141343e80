#!/usr/bin/env python3
"""Builds the benchmark (and the cfd library it drives) from source, then
runs one workload.

    python3 perfbench/run.py --workload cold_compile --seed 1 --seconds 10 --trace 0

Every argument is passed on to the perfbench binary (see README.md).
The build goes to $CARGO_TARGET_DIR when it is set, else to .bench_build,
relative to the repository root; run-time files go to .bench_run. Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    os.chdir(ROOT)
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
