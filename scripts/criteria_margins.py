#!/usr/bin/env python3
"""Statistics and margins of the reproduction criteria 8-11 at several seeds.

The test suite checks these criteria at one seed.  This script runs the same
criterion code (``criterion_NN_checks`` in ``tests/test_acceptance.py``) at
each seed.  For every check ``low <= high`` it prints the margin
``high - low`` at the check's worst element (negative where it fails) and
the ratio ``high / low`` there when ``low`` is positive; a 2-stderr check's
ratio is half its z.  The criteria's own statistics print above each table.
A seed takes about 80 s at the suite's 200 trials on a 2-vCPU host.  Needs
the test extras (pytest, hypothesis, scipy)::

    PYTHONPATH=src python3 scripts/criteria_margins.py --seeds 1 2 3 4
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import test_acceptance as acceptance  # noqa: E402

CRITERIA = {8: acceptance.criterion_08_checks, 9: acceptance.criterion_09_checks,
            10: acceptance.criterion_10_checks, 11: acceptance.criterion_11_checks}


def worst(check) -> tuple[float, str]:
    """The check's margin and, where ``low`` is positive, ``high / low``, both
    at its smallest ``high - low``."""
    low, high = np.broadcast_arrays(np.asarray(check.low, dtype=float),
                                    np.asarray(check.high, dtype=float))
    i = np.argmin(high - low)
    ratio = f"{high.flat[i] / low.flat[i]:.4g}" if low.flat[i] > 0 else "-"
    return check.margin, ratio


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--trials", type=int, default=acceptance.TRIALS)
    parser.add_argument("--criteria", type=int, nargs="+", default=sorted(CRITERIA),
                        choices=sorted(CRITERIA))
    args = parser.parse_args()
    failed = 0
    for seed in args.seeds:
        for number in args.criteria:
            print(f"== criterion {number}, seed {seed}, {args.trials} trials")
            checks = CRITERIA[number](seed, args.trials)
            print("| check | margin | high / low | |\n|---|---|---|---|")
            for check in checks:
                ok = check.holds()
                failed += not ok
                margin, ratio = worst(check)
                print(f"| {check.label} | {margin:.4g} | {ratio} | {'pass' if ok else 'FAIL'} |")
    print(f"{failed} failed checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
