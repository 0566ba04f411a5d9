"""Correctness gate: compare the CSV rows a run wrote with reference rows.

An operation is one CSV result row, keyed by (file, variable, value,
architecture, metric).  A row missing from the output, a row the reference
does not have, a non-finite value, a wrong trial count, or a ``mean`` or
``stderr`` outside the relative tolerance counts as one failed operation.
"""

from __future__ import annotations

import math
import os

COLUMNS = "variable,value,architecture,metric,mean,stderr,trials"


def read_csv(path: str) -> dict[tuple, tuple[float, float, int]]:
    """Rows of one results CSV: key -> (mean, stderr, trials)."""
    with open(path, encoding="utf-8") as fh:
        body = [line.rstrip("\n") for line in fh if line.strip() and not line.startswith("#")]
    if not body or body[0] != COLUMNS:
        raise ValueError(f"{path} is not a bdris results file")
    rows = {}
    for line in body[1:]:
        variable, value, arch, metric, mean, stderr, trials = line.split(",")
        rows[(variable, value, arch, metric)] = (float(mean), float(stderr), int(trials))
    return rows


def read_dir(directory: str) -> dict[tuple, tuple[float, float, int]]:
    """All rows of every CSV in a directory, keyed with the file name first."""
    rows = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv"):
            for key, value in read_csv(os.path.join(directory, name)).items():
                rows[(name, *key)] = value
    return rows


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare(got: dict, ref: dict, rtol: float | None, trials: int) -> list[str]:
    """Failed operations of ``got`` against ``ref``, one message each.

    With ``rtol=None`` only structure is checked: the row set, finite
    values and the trial count.
    """
    failures = [f"missing row {key}" for key in ref if key not in got]
    failures += [f"unexpected row {key}" for key in got if key not in ref]
    for key, (mean, stderr, n) in got.items():
        if key not in ref:
            continue
        if not (math.isfinite(mean) and math.isfinite(stderr)) or n != trials:
            failures.append(f"row {key}: mean={mean!r} stderr={stderr!r} trials={n}")
        elif rtol is not None:
            ref_mean, ref_stderr, _ = ref[key]
            if not (_close(mean, ref_mean, rtol) and _close(stderr, ref_stderr, rtol)):
                failures.append(f"row {key}: mean={mean!r} stderr={stderr!r}, "
                                f"reference {ref_mean!r} {ref_stderr!r}")
    return failures
