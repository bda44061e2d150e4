#!/usr/bin/env python3
"""Build and run the depchaos benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet_storm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the benchmark binary
into .bench_build/perfbench (a Release build); later calls reuse it. Build
output goes to stderr, so the last line on stdout is always the benchmark's
JSON result. The exit code is the benchmark's: non-zero when a correctness
check failed or the sources are missing.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BENCHMARK = "depchaos_perfbench"
TESTS = "perfbench_helpers_test"


def build(target):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no depchaos sources next to perfbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main(argv):
    if argv == ["--self-test"]:
        if not build(TESTS):
            return 2
        return subprocess.run([os.path.join(BUILD, TESTS)], cwd=BUILD).returncode
    if not build(BENCHMARK):
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, BENCHMARK)] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
