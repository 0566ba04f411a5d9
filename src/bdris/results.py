"""Deterministic CSV results files and plot-ready curve extraction."""

from __future__ import annotations

import os
import re
import sys

from .metrics import AggregateResult, ResultRow

COLUMNS = ("variable", "value", "architecture", "metric", "mean", "stderr", "trials")


def _fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def write_results(path: str, result: AggregateResult, experiment: str,
                  config_sha256: str, seed: int) -> str:
    """Write one results table; identical inputs produce identical bytes."""
    lines = [
        f"# experiment: {experiment}",
        f"# config_sha256: {config_sha256}",
        f"# seed: {seed}",
        ",".join(COLUMNS),
    ]
    for row in result.rows:
        lines.append(",".join([
            row.variable, _fmt(row.value), row.architecture, row.metric,
            _fmt(float(row.mean)), _fmt(float(row.stderr)), str(row.trials),
        ]))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_results(path: str) -> tuple[dict, AggregateResult]:
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
    return header, AggregateResult(tuple(rows))


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_")


def emit_plotdata(results_path: str, out_dir: str | None = None) -> list[str]:
    """Write one whitespace-delimited x/mean/stderr file per curve.

    A curve is one (architecture, metric) pair.  An empty results file emits
    nothing and warns.
    """
    _, result = read_results(results_path)
    if not result.rows:
        print(f"warning: {results_path} holds no rows; nothing to emit", file=sys.stderr)
        return []
    out_dir = out_dir or (os.path.dirname(results_path) or ".")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(results_path))[0]
    curves = []
    seen = set()
    for row in result.rows:
        key = (row.architecture, row.metric)
        if key not in seen:
            seen.add(key)
            curves.append(key)
    written = []
    for architecture, metric in curves:
        x, mean, stderr = result.curve(architecture, metric)
        name = f"{stem}__{_safe_name(architecture)}__{_safe_name(metric)}.dat"
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for xi, mi, si in zip(x, mean, stderr):
                fh.write(f"{_fmt(float(xi))} {_fmt(float(mi))} {_fmt(float(si))}\n")
        written.append(path)
    return written
