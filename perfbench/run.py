#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 12 --trace 0

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. Progress and build output go
to standard error. Add --tiny for a seconds-long smoke run (self-tests).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-cold", "serve-hot", "serve-mixed", "fuzz")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def build():
    """Build the library and the benchmark with dune, in this checkout only."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    build()
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, check=False).returncode)


if __name__ == "__main__":
    main()
