#!/usr/bin/env python3
"""Build and run the itlbcfr benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload regen|serve|ingest --seed N --seconds S --trace 0|1

The Go program is built from this checkout's source into .bench_build/
(build cache included, so nothing is written outside the checkout) and
then run with the same arguments from the repository root. Its standard
output passes through; the last line is the JSON result. A build failure,
for instance outside a full checkout, exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([binary, *sys.argv[1:], "--work", BUILD], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
