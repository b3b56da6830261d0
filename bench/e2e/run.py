#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources, then runs it.

Run from the repository root; every argument goes to bench_e2e as is:

    python3 bench/e2e/run.py --workload snv-fig4 --seed 1 --seconds 10 --trace 0

The build lives in .bench_build/e2e. Build output goes to stderr, so the
last line on stdout is bench_e2e's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def run(cmd):
    try:
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("run.py: build failed: %s" % err)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no sources under %s/src to build" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD, "-j", jobs, "--target", "bench_e2e"])
    binary = os.path.join(BUILD, "bench_e2e")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
