#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
framework library and the perfbench program into .bench_build/ (a few
minutes); later runs only check that the build is up to date. The program's
standard output is passed through: its last line is the JSON result.
Build output goes to standard error. Exits non-zero, printing no result,
when the build or the run fails. Extra arguments (--scale smoke,
--write-reference FILE) are passed to the program; see README.md.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
BUILD_JOBS = "4"


def build():
    """Configures (once) and builds the program; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY] + argv
    if "--reference" not in argv:
        command += ["--reference", REFERENCE]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
