#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sysbench-open --seed 1 --seconds 30 --trace 0

The benchmark is the OCaml executable perfbench/main.exe, built with dune
against the repository's libraries; build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  Exits non-zero
without a result when the checkout is incomplete or the build fails.
"""

import os
import shutil
import subprocess
import sys

# A run measures for --seconds plus at most one workload pass (about 12 s,
# traced runs about 17 s); the cap is --seconds plus a margin for that pass,
# and stops a wedged world that the in-process stall guard failed to stop.
PASS_MARGIN_S = 120


def run_timeout():
    args = sys.argv[1:]
    for key, value in zip(args, args[1:]):
        if key == "--seconds" and value.isdigit():
            return int(value) + PASS_MARGIN_S
    return PASS_MARGIN_S


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a full "
                  "checkout", file=sys.stderr)
            return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(dune + ["build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    timeout = run_timeout()
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
