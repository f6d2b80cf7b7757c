#!/usr/bin/env python3
"""Build the system benchmark from source and run one workload.

Run from the root of a checkout of this repository:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

The benchmark is an OCaml executable (perfbench/bench.ml) built with dune
into .bench_build/ inside the checkout; the first run builds it. Its
standard output is passed through unchanged: a human-readable summary,
then one JSON line with the metrics. The exit status is the benchmark's,
or 2 when the checkout or the build is unusable.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the repository root: %s is missing" % needed)
    # Keep every build product inside the checkout: no shared dune cache,
    # and the compilers' temporary files under the build directory.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp, TMP=tmp, TEMP=tmp)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release", TARGET],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not run: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
