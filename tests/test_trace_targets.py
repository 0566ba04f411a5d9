"""The names the traced benchmark wraps still exist in the package.

``bench/trace_child.py`` wraps each entry of its ``TARGETS`` table by
module and attribute name, and counts Frank-Wolfe work from the iteration
count it reads as the solver's fourth positional argument.  A rename in src
would break the benchmark only when it runs, so this checks the table here.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

import bdris.cli  # noqa: F401  (imports every module the targets name)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
trace_child = importlib.import_module("trace_child")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in trace_child.TARGETS],
                         ids=[f"{m}.{a}" for m, a, *_ in trace_child.TARGETS])
def test_target_resolves(module, attr):
    assert callable(getattr(sys.modules[module], attr, None))


def test_frank_wolfe_iterations_is_fourth_positional():
    solver = sys.modules["bdris.experiments"].frank_wolfe_batch
    assert list(inspect.signature(solver).parameters)[3] == "iterations"
