"""Regenerate the committed reference CSVs of the correctness gate.

Usage (from the repository root)::

    python3 bench/make_reference.py --seed 1 --seed 2

Runs every workload's config once per seed with the inherited environment
and writes the CSVs to bench/reference/<workload>/seed<N>/.  Reference rows
define correct output, so regenerate them only from a commit whose results
are trusted, and say so in the change that commits them.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile

from run import REFERENCE, ROOT, WORK, child_env
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    WORK.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in args.seed:
            out = REFERENCE / name / f"seed{seed}"
            shutil.rmtree(out, ignore_errors=True)
            with tempfile.TemporaryDirectory(dir=WORK, prefix="cfg-") as tmp:
                config = workload.write_config(tmp)
                subprocess.run([sys.executable, "-m", "bdris.cli", "run",
                                workload.experiment, "--config", str(config),
                                "--seed", str(seed), "--out", str(out)],
                               env=child_env(), cwd=ROOT, check=True,
                               stdout=subprocess.DEVNULL)
            print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
