#!/usr/bin/env python3
"""Build the benchmark and hirc from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Build output goes to standard
error; the last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "hirbench.exe")
HIRC = os.path.join("_build", "default", "bin", "hirc.exe")


def main():
    # --root pins the project to this directory; with the shared dune
    # cache off, the build reads and writes nothing outside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + BENCH[len("_build/default/"):],
         "./" + HIRC[len("_build/default/"):]],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(BENCH, [BENCH] + sys.argv[1:] + ["--hirc", HIRC])


if __name__ == "__main__":
    sys.exit(main())
