#!/usr/bin/env python3
"""Run every bundled experiment and split the results into plot-ready curves.

On a 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4, one BLAS thread) the
full set, plot files included, took 148 s at the default 200 trials (one
run) and 15-18 s with --trials 20 (two runs), a quick pass over everything.
"""

import argparse
import os
import sys

from bdris.cli import main as cli
from bdris.experiments import RUNNERS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", default=None)
    args = parser.parse_args()

    extra = []
    if args.trials is not None:
        extra += ["--trials", str(args.trials)]
    if args.seed is not None:
        extra += ["--seed", str(args.seed)]
    if args.config is not None:
        extra += ["--config", args.config]

    for name in RUNNERS:
        print(f"== {name}")
        rc = cli(["run", name, "--out", args.out] + extra)
        if rc != 0:
            return rc
    failed = 0
    for entry in sorted(os.listdir(args.out)):
        if entry.endswith(".csv"):
            failed += cli(["plotdata", os.path.join(args.out, entry),
                           "--out", os.path.join(args.out, "curves")]) != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
