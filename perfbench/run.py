#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness (perfbench/perfbench.exe) is built with dune inside the
checkout, with dune's shared cache disabled so that nothing is written
outside it.  Build output goes to stderr; the harness prints its metric
lines and, as the last line of stdout, a one-line JSON result.  The exit
code is the harness's: 0 when every correctness check passed.
"""

import os
import subprocess
import sys

TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            env=env,
            stdout=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
