"""Traced ``bdris`` CLI run: wraps each layer's entry point in a span, then runs the CLI.

Usage: ``python3 trace_child.py SPANS_JSON <bdris CLI arguments...>``

Functions are wrapped under the names their callers look them up by:
``bdris.experiments`` imports with ``from .x import name``, so the wrapper
replaces ``bdris.experiments.<name>``, not the defining module's attribute.
Spans (name, start, end, parent index, exception name, counts) stay in
memory and are written to SPANS_JSON when the CLI returns.  The child exits
with the CLI's status.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def _svd_flops(args, kwargs, result):
    # Golub & Van Loan's R-SVD estimate for Sigma, U1 and V of an m x n
    # matrix, m >= n: 6 m n^2 + 20 n^3 real flops; x4 for complex arithmetic.
    rows, cols = args[0].shape
    m, n = max(rows, cols), min(rows, cols)
    return {"flops_computed": 4 * (6 * m * n * n + 20 * n ** 3)}


def _fw_counts(args, kwargs, result):
    # One (rows x rows) Gram-vector product per instance and iteration.
    instances, rows, _ = args[0].shape
    iterations = args[3] if len(args) > 3 else kwargs["iterations"]
    return {"instances": instances,
            "iters_computed": instances * iterations,
            "macs_computed": instances * iterations * rows * rows}


def _stack_bytes(args, kwargs, result):
    r, h = result
    return {"bytes_computed": r.nbytes + h.nbytes}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


# (module, attribute, span name, counter of the call's work)
TARGETS = (
    ("bdris.experiments", "sample_channels", "channel.sample", None),
    ("bdris.metrics", "zf_precoder", "channel.zf", None),
    ("bdris.experiments", "leading_right_singular_vector", "matrixkit.leading_sv",
     _svd_flops),
    ("bdris.experiments", "stack_fc", "optimizer.stack", _stack_bytes),
    ("bdris.experiments", "stack_gc", "optimizer.stack", _stack_bytes),
    ("bdris.experiments", "frank_wolfe_batch", "optimizer.frank_wolfe", _fw_counts),
    ("bdris.experiments", "relaxed_block_branches", "optimizer.retrieve", None),
    # The single-connected path reaches the codebook only through _snap.
    ("bdris.experiments", "snap_to_codebook", "optimizer.snap", None),
    ("bdris.experiments", "_snap", "optimizer.snap", None),
    ("bdris.experiments", "scattering_from_capacitances", "circuit.scatter", None),
    ("bdris.experiments", "build_codebook", "circuit.codebook", None),
    ("bdris.experiments", "evaluate_received_powers", "metrics.received_power", None),
    ("bdris.experiments", "sum_spectral_efficiency_outdated", "metrics.se_outdated",
     None),
    ("bdris.cli", "load_config", "config.load", None),
    ("bdris.cli", "validate_config", "config.validate", None),
    ("bdris.cli", "write_results", "results.write", _file_bytes),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      self._open[-1] if self._open else -1, None, None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result
        return traced


def install(tracer: Tracer):
    """Wrap every target and every experiment runner; fail on a missing name."""
    for module_name, attr, span, count in TARGETS:
        module = sys.modules[module_name]
        if not hasattr(module, attr):
            raise SystemExit(f"trace: {module_name}.{attr} no longer exists; "
                             f"span {span} cannot be recorded")
        setattr(module, attr, tracer.wrap(getattr(module, attr), span, count))
    runners = sys.modules["bdris.experiments"].RUNNERS
    for key, fn in list(runners.items()):
        runners[key] = tracer.wrap(fn, "experiments")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import bdris.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(bdris.cli.main, "cli")(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "bdris_file": bdris.cli.__file__,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
