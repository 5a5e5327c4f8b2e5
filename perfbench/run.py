#!/usr/bin/env python3
"""Build and run the simulation benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/bench.exe with dune
(inside the repository's own _build directory, with the shared dune cache
off), then runs it with the same arguments.  The last line of standard
output is the JSON result; build output goes to standard error.  The exit
code is non-zero, and no result is printed, when the build or the run
fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "./perfbench/bench.exe"],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run did not finish: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
