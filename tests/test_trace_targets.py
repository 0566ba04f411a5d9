"""The names the traced benchmark wraps still exist in the package.

``bench/trace_child.py`` wraps each entry of its ``TARGETS`` table by
module and attribute name, and counts Frank-Wolfe work from the iteration
count it reads as the solver's fourth positional argument.  A rename in src
would break the benchmark only when it runs, so this checks the table here,
and the shape of the results its counters read.
"""

import importlib
import inspect
import pathlib
import sys

import numpy as np
import pytest

import bdris.cli  # noqa: F401  (imports every module the targets name)
from bdris.channel import ChannelSet
from bdris.optimizer import ObjectiveWeights

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
trace_child = importlib.import_module("trace_child")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in trace_child.TARGETS],
                         ids=[f"{m}.{a}" for m, a, *_ in trace_child.TARGETS])
def test_target_resolves(module, attr):
    assert callable(getattr(sys.modules[module], attr, None))


def test_frank_wolfe_iterations_is_fourth_positional():
    solver = sys.modules["bdris.experiments"].frank_wolfe_batch
    assert list(inspect.signature(solver).parameters)[3] == "iterations"


def test_stack_results_unpack_as_the_tracer_counts_them():
    # _stack_bytes reads each optimizer.stack call's result as the pair (K, h)
    experiments = sys.modules["bdris.experiments"]
    rng = np.random.default_rng(0)
    draw = ChannelSet(g=(rng.standard_normal((4, 2)) + 0j,),
                      f=((rng.standard_normal(4) + 0j,),), h=((rng.standard_normal(2) + 0j,),))
    factors = experiments.stack_factors(draw, ObjectiveWeights(mu=(1.0,), nu=((1.0,),)), (0,))
    for result in (experiments.stack_fc(factors), experiments.stack_gc(factors, 2)):
        assert trace_child._stack_bytes((factors,), {}, result)["bytes_computed"] > 0
