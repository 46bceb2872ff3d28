#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 ivmbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The OCaml program (ivmbench/bench.ml) is built with dune into _build/ in
the working directory, then run with the same arguments. Its last line
of output is the JSON result; this script passes it through and exits
with the program's exit code. It fails (exit 2, no result) when the
working directory is not a checkout of the repository.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("ingest", "serve-ryw", "cluster-mixed")
EXE = os.path.join("_build", "default", "ivmbench", "bench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("ivmbench", "dune")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./ivmbench/bench.exe"],
        env=env, stdout=sys.stderr, timeout=840)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
