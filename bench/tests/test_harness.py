"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import SPANS, WORKLOADS, Workload  # noqa: E402


def span(name, start, end, parent=-1, error=None, counts=None):
    return [name, start, end, parent, error, counts]


def test_self_time_subtracts_nested_children():
    records = [
        span("cli", 0.0, 10.0),
        span("experiments", 1.0, 4.0, parent=0),
        span("circuit.scatter", 2.0, 3.0, parent=1),
        span("results.write", 5.0, 6.0, parent=0),
    ]
    assert spans.self_times(records) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_covered_interval_once():
    records = [
        span("cli", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 5.0, parent=0),     # overlaps a
        span("c", 9.0, 12.0, parent=0),    # runs past its parent's end
    ]
    assert spans.self_times(records)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_totals_sum_calls_self_time_counts_and_errors():
    records = [
        span("experiments", 0.0, 5.0),
        span("optimizer.stack", 1.0, 2.0, parent=0, counts={"bytes_computed": 100}),
        span("optimizer.stack", 2.0, 4.0, parent=0, counts={"bytes_computed": 50}),
        span("channel.zf", 4.0, 4.5, parent=0, error="DegenerateChannelError"),
    ]
    totals = spans.layer_totals(records, ("experiments", "optimizer.stack", "channel.zf"))
    assert totals["experiments"]["self_s"] == pytest.approx(1.5)
    assert totals["optimizer.stack"]["calls"] == 2
    assert totals["optimizer.stack"]["self_s"] == pytest.approx(3.0)
    assert totals["optimizer.stack"]["counts"]["bytes_computed"] == 150
    assert totals["channel.zf"]["errors"] == 1


def test_probe_stack_is_not_useful():
    order = ["channel.sample", "optimizer.stack",            # probe: next is a draw
             "channel.sample", "channel.sample",
             "optimizer.stack", "optimizer.stack", "optimizer.frank_wolfe",
             "channel.sample", "optimizer.stack", "matrixkit.leading_sv",
             "optimizer.stack"]                               # never solved
    records = [span(name, float(i), i + 0.5) for i, name in enumerate(order)]
    assert spans.useful_stacks(records) == (3, 5)


def test_coverage_flags_silent_and_unexpected_spans():
    workload = WORKLOADS["freq-sweep"]
    layers = {f"{s}.calls": 1 for s in SPANS}
    for s in workload.zero_spans:
        layers[f"{s}.calls"] = 0
    assert run.coverage_failures(layers, workload, "pass") == []
    layers["circuit.scatter.calls"] = 0
    layers["optimizer.frank_wolfe.calls"] = 3
    problems = run.coverage_failures(layers, workload, "pass")
    assert len(problems) == 2
    assert any("circuit.scatter" in p for p in problems)
    assert any("optimizer.frank_wolfe" in p for p in problems)


@pytest.fixture(scope="module")
def reference():
    return gate.read_dir(str(run.REFERENCE / "freq-sweep" / "seed1"))


def test_comparator_flags_a_single_perturbed_row(reference):
    key = sorted(reference)[40]
    mean, stderr, trials = reference[key]
    got = dict(reference)
    got[key] = (mean * (1 + 1e-6), stderr, trials)
    failures = gate.compare(got, reference, 1e-9, trials)
    assert len(failures) == 1 and str(key) in failures[0]
    got[key] = (mean * (1 + 1e-12), stderr, trials)
    assert gate.compare(got, reference, 1e-9, trials) == []


def test_comparator_structure_checks(reference):
    trials = next(iter(reference.values()))[2]
    keys = sorted(reference)
    got = dict(reference)
    del got[keys[0]]
    got[keys[1]] = (math.nan, 0.0, trials)
    got[keys[2]] = (1.0, 0.0, trials + 1)
    got[("extra.csv", "x", "1", "a", "m")] = (1.0, 0.0, trials)
    # Structure only: values may differ from the reference, shape may not.
    assert len(gate.compare(got, reference, None, trials)) == 4
    assert gate.compare({k: (1.0, 2.0, trials) for k in reference}, reference,
                        None, trials) == []


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert "--rtol" in spec["command"]
    for name in WORKLOADS:
        assert (run.REFERENCE / name / "seed1").is_dir()


SMOKE = Workload(
    name="smoke",
    experiment="freq-response",
    trials=1,
    settings={"d_values": [4], "grid_ghz": {"start": 7.0, "stop": 7.5, "step": 0.5}},
    points=3,
    zero_spans=WORKLOADS["freq-sweep"].zero_spans,
)


@pytest.fixture(scope="module")
def smoke_reference(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    out = root / SMOKE.name / "seed5"
    config = SMOKE.write_config(root)
    subprocess.run([sys.executable, "-m", "bdris.cli", "run", SMOKE.experiment,
                    "--config", str(config), "--seed", "5", "--out", str(out)],
                   env=run.child_env(), cwd=run.ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return root


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_config_runs_the_whole_harness(smoke_reference, trace):
    result, lines = run.run_benchmark(SMOKE, 5, 0.1, trace, 1e-9, smoke_reference)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.per_layer_units() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert any(line.startswith("correctness: verified") for line in lines)
    if trace:
        assert result["metrics"]["optimizer.frank_wolfe.calls"]["value"] == 0
        assert result["metrics"]["circuit.scatter.calls"]["value"] == 3 * 2
    # A seed without reference rows is checked for structure only.
    result, lines = run.run_benchmark(SMOKE, 6, 0.1, False, 1e-9, smoke_reference)
    assert result["correct"]
    assert any(line.startswith("correctness: unverified") for line in lines)


def test_smoke_gate_fails_a_perturbed_reference(smoke_reference, tmp_path):
    bad = tmp_path / "reference"
    shutil.copytree(smoke_reference, bad)
    csv = next((bad / SMOKE.name / "seed5").glob("*.csv"))
    lines = csv.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[4] = repr(float(fields[4]) * 1.001)
    csv.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    result, _ = run.run_benchmark(SMOKE, 5, 0.1, False, 1e-9, bad)
    assert not result["correct"] and result["failed"] == 1


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--rtol", "1e-9",
                           "--workload", "freq-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
