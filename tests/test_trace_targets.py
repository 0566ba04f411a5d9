"""The names the traced benchmark wraps still exist in the package.

``bench/trace_child.py`` wraps each entry of its ``TARGETS`` table by
module and attribute name, and counts Frank-Wolfe work from the iteration
count it reads as the solver's fourth positional argument.  A rename in src
would break the benchmark only when it runs, so this checks the table here,
the shape of the results its counters read, and that a tiny run of each
benchmark workload records calls in exactly the spans the workload predicts.
"""

import importlib
import inspect
import json
import pathlib
import sys

import numpy as np
import pytest

import bdris.cli  # noqa: F401  (imports every module the targets name)
from bdris.channel import ChannelSet
from bdris.optimizer import ObjectiveWeights

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
trace_child = importlib.import_module("trace_child")
spans = importlib.import_module("spans")
workloads = importlib.import_module("workloads")

# Per workload, the settings that shrink it to one trial at D = 4 while
# keeping its experiment, link modes and architectures.
TINY = {
    "freq-sweep": {"d_values": [4], "grid_ghz": {"start": 7.0, "stop": 7.5, "step": 0.5}},
    "direct-links": {"ris_positions_m": [[40.0, 20.0]], "d_grid": [4]},
    "power-grid": {"d_grid": [4]},
}


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
    out = np.empty((2, 2), dtype=complex)  # a preallocated batch slot counts the same bytes
    for result, in_place in ((experiments.stack_fc(factors), experiments.stack_fc(factors, out)),
                             (experiments.stack_gc(factors, 2),
                              experiments.stack_gc(factors, 2, out))):
        counted = trace_child._stack_bytes((factors,), {}, result)
        assert counted["bytes_computed"] > 0
        assert trace_child._stack_bytes((factors, out), {}, in_place) == counted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_records_its_predicted_spans(name, monkeypatch, tmp_path, capsys):
    # every wrapped name is registered with monkeypatch first, so the
    # tracer's wrappers are removed again when the test ends
    for module, attr, *_ in trace_child.TARGETS:
        monkeypatch.setattr(sys.modules[module], attr, getattr(sys.modules[module], attr))
    runners = sys.modules["bdris.experiments"].RUNNERS
    for key, fn in list(runners.items()):
        monkeypatch.setitem(runners, key, fn)
    tracer = trace_child.Tracer()
    trace_child.install(tracer)

    workload = workloads.WORKLOADS[name]
    cfg = workload.config()
    cfg["simulation"]["trials"] = 1
    cfg["experiments"][workload.experiment].update(TINY[name])
    cfg.setdefault("optimization", {})["fw_iterations"] = 3
    path = tmp_path / f"{name}.yaml"
    path.write_text(json.dumps(cfg))
    code = sys.modules["bdris.cli"].main(["run", workload.experiment, "--config", str(path),
                                          "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err

    totals = spans.layer_totals(tracer.spans, workloads.SPANS)
    silent = [s for s in workload.expected_spans() if totals[s]["calls"] == 0]
    assert not silent, f"{name}: no calls recorded in " + ", ".join(silent)
    loud = [s for s in sorted(workload.zero_spans) if totals[s]["calls"] != 0]
    assert not loud, f"{name}: calls recorded in predicted-zero " + ", ".join(loud)
