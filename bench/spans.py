"""Per-layer numbers from the span records the traced child writes.

A span record is ``[name, start, end, parent index, exception name, counts]``
with ``parent == -1`` for a root.  A span's self time is its duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

NAME, START, END, PARENT, ERROR, COUNTS = range(6)

SOLVERS = ("matrixkit.leading_sv", "optimizer.frank_wolfe")


def self_times(spans: list) -> list[float]:
    """Self time of every span, in record order."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def useful_stacks(spans: list) -> tuple[int, int]:
    """(stacks whose result reached a relaxed solver, all stacks).

    A stack is useful when the next non-stack call among channel draws and
    solvers is a solver; a stack followed by a fresh channel draw (or by
    nothing) was built only to be thrown away, such as the trial-0 probe
    that sizes conditional-gradient chunks.
    """
    order = sorted((s for s in spans
                    if s[NAME] in ("channel.sample", "optimizer.stack", *SOLVERS)),
                   key=lambda s: s[START])
    useful = total = pending = 0
    for span in order:
        if span[NAME] == "optimizer.stack":
            pending += 1
            total += 1
        elif span[NAME] in SOLVERS:
            useful += pending
            pending = 0
        else:
            pending = 0
    return useful, total


def layer_totals(spans: list, names) -> dict[str, dict]:
    """Calls, summed self time, summed counts and exceptions per span name."""
    totals = {n: {"calls": 0, "self_s": 0.0, "errors": 0, "counts": defaultdict(int)}
              for n in names}
    for span, own in zip(spans, self_times(spans)):
        layer = totals.get(span[NAME])
        if layer is None:
            continue
        layer["calls"] += 1
        layer["self_s"] += own
        layer["errors"] += span[ERROR] is not None
        for key, value in (span[COUNTS] or {}).items():
            layer["counts"][key] += value
    return totals
