"""Deterministic CSV results files and plot-ready curve extraction."""

from __future__ import annotations

import os
import re
import sys

from .metrics import ResultRow

COLUMNS = ("variable", "value", "architecture", "metric", "mean", "stderr", "trials")


def _fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def write_results(path: str, rows: tuple[ResultRow, ...], experiment: str,
                  config_sha256: str, seed: int) -> str:
    """Write one results table; identical inputs produce identical bytes."""
    lines = [
        f"# experiment: {experiment}",
        f"# config_sha256: {config_sha256}",
        f"# seed: {seed}",
        ",".join(COLUMNS),
    ]
    for row in rows:
        lines.append(",".join([
            row.variable, _fmt(row.value), row.architecture, row.metric,
            _fmt(float(row.mean)), _fmt(float(row.stderr)), str(row.trials),
        ]))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_results(path: str) -> tuple[dict, tuple[ResultRow, ...]]:
    """Parse a results CSV back into its header fields and rows."""
    header: dict = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    body = []
    for line in lines:
        if line.startswith("#"):
            if ":" in line:
                key, value = line[1:].split(":", 1)
                header[key.strip()] = value.strip()
        elif line:
            body.append(line)
    if not body or body[0] != ",".join(COLUMNS):
        raise ValueError(f"{path} is not a results file (missing column header)")
    for line in body[1:]:
        parts = line.split(",")
        if len(parts) != len(COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
        variable, value, architecture, metric, mean, stderr, trials = parts
        rows.append(ResultRow(variable, float(value), architecture, metric,
                              float(mean), float(stderr), int(trials)))
    return header, tuple(rows)


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_")


def emit_plotdata(results_path: str, out_dir: str | None = None) -> list[str]:
    """Write one whitespace-delimited x/mean/stderr file per curve.

    A curve is one (architecture, metric) pair, its lines in row order.  An
    empty results file emits nothing and warns.
    """
    _, rows = read_results(results_path)
    if not rows:
        print(f"warning: {results_path} holds no rows; nothing to emit", file=sys.stderr)
        return []
    out_dir = out_dir or (os.path.dirname(results_path) or ".")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(results_path))[0]
    curves: dict[tuple[str, str], list[str]] = {}
    for r in rows:
        curves.setdefault((r.architecture, r.metric), []).append(
            f"{_fmt(r.value)} {_fmt(r.mean)} {_fmt(r.stderr)}\n")
    written = []
    for (architecture, metric), lines in curves.items():
        name = f"{stem}__{_safe_name(architecture)}__{_safe_name(metric)}.dat"
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        written.append(path)
    return written
