import copy
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from bdris.channel import AVAILABLE, BLOCKED, NetworkScenario, PowerConfig, \
    sample_channels, stream_rng
from bdris.circuit import CircuitParams, RisTopology, build_codebook, random_plan, \
    scattering_from_capacitances
from bdris import experiments
from bdris.config import DEFAULT_CONFIG, load_config, validate_config
from bdris.errors import DegenerateChannelError
from bdris.experiments import (RUNNERS, fc_target_bs, freq_response, interference,
                               network_power, per_bs_power, priority_assignment,
                               solve_trials, target_shift, topology_for)
from bdris.optimizer import (FwConfig, GroupAssignment, ObjectiveWeights,
                             first_column, reduced_adjoint)
from bdris.metrics import aggregate
from bdris.results import read_results, write_results

PARAMS = CircuitParams.defaults()


def bench_module(name):
    """A module of the benchmark harness, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def tiny_config(**sections):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["simulation"]["trials"] = 3
    cfg["simulation"]["seed"] = 5
    for key, value in sections.items():
        cfg["experiments"][key].update(value)
    return cfg


class TestHelpers:
    def test_topology_for(self):
        assert topology_for("fully-connected", 8, 2).g == 1
        assert topology_for("group-connected", 8, 2).g == 2
        assert topology_for("single-connected", 8, 2).g == 8
        with pytest.raises(ValueError):
            topology_for("mesh", 8, 2)

    def test_priority_assignment_balanced(self):
        weights = ObjectiveWeights(mu=(0.3, 0.7), nu=((1.0,), (1.0,)))
        topo = RisTopology(8, 2)
        a = priority_assignment(weights, topo)
        assert a.bs == (0, 1)
        assert a.groups == ((0,), (1,))

    def test_priority_assignment_dedicated(self):
        weights = ObjectiveWeights(mu=(1.0, 0.0), nu=((1.0,), (1.0,)))
        topo = RisTopology(8, 2)
        a = priority_assignment(weights, topo)
        assert a.bs == (0,)
        assert a.groups == ((0, 1),)

    def test_fc_target_keeps_preferred_when_weighted(self):
        weights = ObjectiveWeights(mu=(0.3, 0.7), nu=((1.0,), (1.0,)))
        assert fc_target_bs(weights, (7.4e9, 8.0e9), 7.4e9) == 0

    def test_fc_target_moves_off_zero_weight(self):
        weights = ObjectiveWeights(mu=(0.0, 1.0), nu=((1.0,), (1.0,)))
        assert fc_target_bs(weights, (7.4e9, 8.0e9), 7.4e9) == 1

    @pytest.mark.parametrize("arch", ["fully-connected", "group-connected",
                                      "single-connected"])
    @pytest.mark.parametrize("mu", [(1.0, 0.0), (0.3, 0.7)])
    def test_stack_shape_without_sampling(self, arch, mu):
        sc = NetworkScenario(
            bs_positions=((0.0, 0.0), (80.0, 0.0)),
            user_positions=(((25.0, 10.0), (30.0, 5.0)), ((70.0, 10.0),)),
            ris_position=(40.0, 20.0), m=3, frequencies=(7.4e9, 8.0e9),
            eta_direct=3.5, eta_reflected=2.5, direct_links=BLOCKED)
        weights = ObjectiveWeights(mu=mu, nu=((0.5, 0.5), (1.0,)))
        topo = topology_for(arch, 8, 2)
        if topo.g == 1:
            assignment = GroupAssignment.single(0, topo)
        else:
            assignment = priority_assignment(weights, topo)
        chans = sample_channels(sc, 8, stream_rng(0, 0))
        rows = experiments._stack_shape(sc, weights, topo, assignment)
        assert list(rows) == list(assignment.bs)
        for bs in assignment.bs:
            gram, h = experiments._stack(chans, weights, topo, bs)
            assert gram.shape == (rows[bs], rows[bs]) and h.shape == (rows[bs],)

    @pytest.mark.parametrize("name", ["freq-sweep", "direct-links", "power-grid"])
    def test_workload_config_validates(self, name, tmp_path):
        path = bench_module("workloads").WORKLOADS[name].write_config(tmp_path)
        cfg, lines, source = load_config(str(path))
        assert validate_config(cfg, source, lines) == []

    def test_traced_names_resolve(self):
        # the traced benchmark wraps these module globals by name
        trace_child = bench_module("trace_child")
        for module_name, attr, span, _count in trace_child.TARGETS:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr, None)), (module_name, attr, span)

    # each benchmark workload's config, shrunk to one trial at D = 8
    TINY = {"freq-sweep": {"d_values": [8],
                           "grid_ghz": {"start": 7.0, "stop": 8.0, "step": 0.5}},
            "direct-links": {"ris_positions_m": [[40.0, 20.0]], "d_grid": [8]},
            "power-grid": {"d_grid": [8]}}

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_traced_spans_match_workload_prediction(self, name, monkeypatch, tmp_path):
        # the benchmark's tracer, installed in process: every span the
        # workload predicts records calls, and every predicted-zero span none
        trace_child, workload = bench_module("trace_child"), bench_module("workloads")
        import bdris.cli
        for module_name, attr, _span, _count in trace_child.TARGETS:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after
        for key, fn in RUNNERS.items():
            monkeypatch.setitem(RUNNERS, key, fn)
        tracer = trace_child.Tracer()
        trace_child.install(tracer)
        w = workload.WORKLOADS[name]
        cfg = w.config()
        cfg["simulation"]["trials"] = 1
        cfg["experiments"][w.experiment].update(self.TINY[name])
        cfg.setdefault("optimization", {})["fw_iterations"] = 5
        path = tmp_path / "tiny.yaml"
        path.write_text(json.dumps(cfg))
        assert bdris.cli.main(["run", w.experiment, "--config", str(path), "--seed", "1",
                               "--out", str(tmp_path / "out")]) == 0
        calls = {span: 0 for span in workload.SPANS}
        for record in tracer.spans:
            calls[record[0]] += 1
        assert [s for s in w.expected_spans() if calls[s] == 0] == []
        assert [s for s in sorted(w.zero_spans) if calls[s] != 0] == []


class TestDirectBatching:
    SC = NetworkScenario(
        bs_positions=((0.0, 0.0), (80.0, 0.0)),
        user_positions=(((25.0, 10.0),), ((70.0, 10.0),)),
        ris_position=(40.0, 20.0), m=3, frequencies=(7.4e9, 8.0e9),
        eta_direct=3.5, eta_reflected=2.5, direct_links=AVAILABLE)

    def test_one_batch_per_chunk_over_trials_and_priority_bs(self, monkeypatch):
        sc = self.SC
        d, seed, trials, fw = 8, 7, 5, FwConfig(30)
        weights = ObjectiveWeights(mu=(0.3, 0.7), nu=((1.0,), (1.0,)))
        topo = topology_for("group-connected", d, 2)
        assignment = priority_assignment(weights, topo)
        assert assignment.bs == (0, 1)
        rows = experiments._stack_shape(sc, weights, topo, assignment)
        assert rows[0] == rows[1]
        per_instance = rows[0] * rows[0] * 16
        # room for two trials of two instances each, not three
        monkeypatch.setattr(experiments, "BATCH_BYTES", 5 * per_instance)

        calls = []
        solver = experiments.frank_wolfe_batch

        def spy(gram, h, *args, **kwargs):
            result = solver(gram, h, *args, **kwargs)
            calls.append((gram.shape[0], result))
            return result

        states = []

        def evaluate(chans, state):
            states.append(state)
            return {"m": 0.0}

        monkeypatch.setattr(experiments, "frank_wolfe_batch", spy)
        point = experiments.Point(sc, d, topo, assignment, weights, fw, evaluate,
                                  "batching")
        chunks = [[t for _, t in b] for b in experiments._batches([point], trials)]
        assert chunks == [[0, 1], [2, 3], [4]]
        experiments._run_sweep([point], seed, trials, PARAMS.z0)
        assert [n for n, _ in calls] == [4, 4, 2]

        radius = float(np.sqrt(topo.g))
        draws = [sample_channels(sc, d, stream_rng(seed, t)) for t in range(trials)]
        stacks = [{bs: (*experiments._stack(c, weights, topo, bs),
                        experiments._factors(c, weights, topo, bs))
                   for bs in assignment.bs} for c in draws]
        for (_, (acc, c, _)), chunk in zip(calls, chunks):
            part = [stacks[t] for t in chunk]
            acc, c = acc.reshape(len(part), 2, rows[0]), c.reshape(len(part), 2)
            separate = {bs: solver(np.stack([s[bs][0] for s in part]),
                                   np.stack([s[bs][1] for s in part]), radius,
                                   fw.iterations,
                                   np.stack([first_column(s[bs][2]) for s in part]),
                                   step_rule=fw.step_rule)
                        for bs in assignment.bs}
            for j, bs in enumerate(assignment.bs):
                assert np.array_equal(acc[:, j], separate[bs][0])
                assert np.array_equal(c[:, j], separate[bs][1])
            # and each trial's state is built from its own instances
            for i, (state, stack) in enumerate(zip([states[t] for t in chunk], part)):
                thetas = {}
                for bs in assignment.bs:
                    thetas[bs] = reduced_adjoint(stack[bs][2], separate[bs][0][i], topo.g)
                    thetas[bs][0] += separate[bs][1][i]
                expected = experiments._state_from_thetas(thetas, topo, assignment,
                                                          PARAMS.z0)
                for field in ("owner", "self_y", "inter_y"):
                    assert np.array_equal(getattr(state, field), getattr(expected, field))

    def test_batches_span_points_and_split_by_gram_size(self, monkeypatch):
        # fully connected: one 6-row instance per trial (both base stations);
        # group connected: two 3-row instances.  A blocked point between
        # them closes the open batch and runs each trial alone.
        sc = self.SC
        weights = ObjectiveWeights(mu=(0.3, 0.7), nu=((1.0,), (1.0,)))
        fc, gc = topology_for("fully-connected", 8, 2), topology_for("group-connected", 8, 2)
        fw = FwConfig(10)

        def point(topo, fw):
            assignment = (GroupAssignment.single(0, topo) if topo.g == 1
                          else priority_assignment(weights, topo))
            return experiments.Point(sc, 8, topo, assignment, weights, fw,
                                     lambda chans, state: {"m": 0.0}, "mixed")

        points = [point(fc, fw), point(gc, fw), point(fc, None), point(gc, fw)]
        monkeypatch.setattr(experiments, "BATCH_BYTES", 6 * 6 * 16 + 2 * 3 * 3 * 16)
        assert list(experiments._batches(points, 2)) == [
            [(0, 0)], [(0, 1), (1, 0)], [(1, 1)], [(2, 0)], [(2, 1)], [(3, 0), (3, 1)]]
        calls = []
        solver = experiments.frank_wolfe_batch

        def spy(gram, h, radius, *args, **kwargs):
            calls.append((gram.shape, np.asarray(radius).tolist()))
            return solver(gram, h, radius, *args, **kwargs)

        monkeypatch.setattr(experiments, "frank_wolfe_batch", spy)
        experiments._run_sweep(points, 2, 2, PARAMS.z0)
        root2 = float(np.sqrt(2))
        assert calls == [((1, 6, 6), [1.0]), ((1, 6, 6), [1.0]),
                         ((2, 3, 3), [root2, root2]), ((2, 3, 3), [root2, root2]),
                         ((4, 3, 3), [root2] * 4)]

    @pytest.mark.parametrize("runner, key", [(interference, "interference"),
                                             (network_power, "network-power")])
    def test_csv_bytes_independent_of_batch_budget(self, monkeypatch, tmp_path, runner,
                                                   key):
        cfg = tiny_config(**{key: {"d_grid": [4, 8]}})
        cfg["simulation"]["trials"] = 2
        cfg["optimization"]["fw_iterations"] = 25
        if key == "interference":
            cfg["experiments"][key]["ris_positions_m"] = [[40.0, 20.0], [60.0, 20.0]]
        else:
            cfg["experiments"][key]["weight_sets"] = [[0.3, 0.7], [1.0, 0.0]]
        outputs = []
        for budget in (1, experiments.BATCH_BYTES, 10 ** 9):
            monkeypatch.setattr(experiments, "BATCH_BYTES", budget)
            out = tmp_path / str(budget)
            for name, table in runner(copy.deepcopy(cfg)).items():
                write_results(str(out / f"{name}.csv"), table, key, "hash", 5)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1] == outputs[2]
        # two positions; two weight sets times both link modes
        assert len(outputs[0]) == (2 if key == "interference" else 4)

    def test_direct_links_pool_grid_points(self, monkeypatch):
        # the direct-links benchmark's shape (three positions, four sizes,
        # three architectures), shrunk: fewer solver calls than grid points
        cfg = tiny_config(interference={"ris_positions_m": [[20.0, 20.0], [40.0, 20.0]],
                                        "d_grid": [4, 8]})
        cfg["simulation"]["trials"] = 2
        cfg["optimization"]["fw_iterations"] = 5
        calls = []
        solver = experiments.frank_wolfe_batch

        def spy(gram, *args, **kwargs):
            calls.append(gram.shape[0])
            return solver(gram, *args, **kwargs)

        monkeypatch.setattr(experiments, "frank_wolfe_batch", spy)
        interference(cfg)
        points = 2 * 2 * len(cfg["simulation"]["architectures"])
        assert sum(calls) == points * 2
        assert len(calls) < points


class TestFreqResponse:
    def test_rows_and_determinism(self):
        cfg = tiny_config(**{"freq-response": {
            "d_values": [8], "grid_ghz": {"start": 7.0, "stop": 8.0, "step": 0.5}}})
        out1 = freq_response(cfg)["freq_response"]
        out2 = freq_response(copy.deepcopy(cfg))["freq_response"]
        assert out1.rows == out2.rows
        labels = {r.architecture for r in out1.rows}
        assert labels == {"fully-connected D=8", "group-connected D=8",
                          "single-connected D=8"}
        assert all(r.mean > 0 for r in out1.rows)
        assert all(r.trials == 3 for r in out1.rows)
        x, m, s = out1.curve("fully-connected D=8", "received_power_w")
        assert np.array_equal(x, [7.0, 7.5, 8.0])


class TestTargetShift:
    def test_fully_connected_peaks_at_target(self):
        cfg = tiny_config(**{"target-shift": {
            "targets_ghz": [7.4], "half_span_ghz": 0.6, "step_ghz": 0.3, "d": 16}})
        cfg["simulation"]["trials"] = 10
        out = target_shift(cfg)
        assert set(out) == {"target_shift_7p4ghz"}
        res = out["target_shift_7p4ghz"]
        x, m, _ = res.curve("fully-connected", "received_power_w")
        assert abs(x[np.argmax(m)] - 7.4) <= 0.3 + 1e-9
        # fixed plan away from the target loses power
        at = dict(zip(np.round(x, 2), m))
        assert at[7.4] > at[6.8] and at[7.4] > at[8.0]


FREQ_SWEEPS = (
    (freq_response, "freq-response", {
        "d_values": [8], "grid_ghz": {"start": 7.0, "stop": 8.0, "step": 0.5}},
     "freq-response fully-connected D=8"),
    (target_shift, "target-shift", {
        "targets_ghz": [7.4], "half_span_ghz": 0.2, "step_ghz": 0.2, "d": 8},
     "target-shift fully-connected"),
)


@pytest.mark.parametrize("runner, key, section, context", FREQ_SWEEPS,
                         ids=["freq-response", "target-shift"])
def test_frequency_sweeps_redraw_degenerate_draws(monkeypatch, runner, key, section,
                                                  context):
    cfg = tiny_config(**{key: section})
    cfg["simulation"]["architectures"] = ["fully-connected"]
    powers = experiments.evaluate_received_powers
    rng = experiments.stream_rng
    calls = []

    def fail_first(*args):
        calls.append(1)
        if len(calls) == 1:
            raise DegenerateChannelError("forced")
        return powers(*args)

    monkeypatch.setattr(experiments, "evaluate_received_powers", fail_first)
    forced = runner(copy.deepcopy(cfg))

    # the same run with trial 0 drawn from its first redraw substream
    monkeypatch.setattr(experiments, "evaluate_received_powers", powers)
    monkeypatch.setattr(experiments, "stream_rng",
                        lambda seed, t, attempt=0: rng(seed, t, attempt=attempt + (t == 0)))
    expected = runner(copy.deepcopy(cfg))
    assert forced == expected

    def always(*args):
        raise DegenerateChannelError("always")

    monkeypatch.setattr(experiments, "evaluate_received_powers", always)
    with pytest.raises(RuntimeError, match=f"degenerate trials at {context}$"):
        runner(copy.deepcopy(cfg))


@pytest.mark.parametrize("runner, key, section, per_trial_and_point", [
    (freq_response, "freq-response", FREQ_SWEEPS[0][2], 3),  # one per frequency
    (target_shift, "target-shift", FREQ_SWEEPS[1][2], 1),  # the plan is held
], ids=["freq-response", "target-shift"])
def test_tracked_user_snap_counts(monkeypatch, runner, key, section, per_trial_and_point):
    snap, calls = experiments.snap_to_codebook, []

    def spy(*args):
        calls.append(1)
        return snap(*args)

    monkeypatch.setattr(experiments, "snap_to_codebook", spy)
    cfg = tiny_config(**{key: section})
    runner(cfg)
    points = len(cfg["simulation"]["architectures"])
    assert len(calls) == cfg["simulation"]["trials"] * points * per_trial_and_point


@pytest.mark.parametrize("runner, key, section", [s[:3] for s in FREQ_SWEEPS],
                         ids=["freq-response", "target-shift"])
def test_tracked_user_gets_whole_budget(runner, key, section):
    cfg = tiny_config(**{key: section})
    cfg["simulation"]["trials"] = 1
    skewed = copy.deepcopy(cfg)
    skewed["power"]["alpha"] = [[0.1, 0.9], [0.5, 0.5]]
    assert runner(cfg) == runner(skewed)


def test_power_config_rejects_layout_mismatch():
    from bdris.config import power_config, single_user_scenario
    scenario = single_user_scenario(DEFAULT_CONFIG, 0, 0, 7.4e9, BLOCKED)
    with pytest.raises(ValueError, match="power.alpha layout"):
        power_config(DEFAULT_CONFIG, scenario)


class TestPowerSweeps:
    def test_per_bs_power_blocked(self):
        cfg = tiny_config(**{"per-bs-power": {
            "d_grid": [8], "weight_sets": [[0.3, 0.7]], "link_modes": ["blocked"]}})
        out = per_bs_power(cfg)
        assert set(out) == {"per_bs_power__mu_0.3_0.7__blocked"}
        res = out["per_bs_power__mu_0.3_0.7__blocked"]
        metrics = {r.metric for r in res.rows}
        assert metrics == {"sum_power_bs1_w", "sum_power_bs2_w"}
        assert all(r.mean > 0 for r in res.rows)

    def test_network_power_available_uses_direct_links(self):
        cfg = tiny_config(**{"network-power": {
            "d_grid": [8], "weight_sets": [[1.0, 0.0]], "link_modes": ["available"]}})
        cfg["optimization"]["fw_iterations"] = 40
        out = network_power(cfg)
        res = out["network_power__mu_1_0__available"]
        assert {r.metric for r in res.rows} == {"network_sum_power_w"}
        blocked_cfg = tiny_config(**{"network-power": {
            "d_grid": [8], "weight_sets": [[1.0, 0.0]], "link_modes": ["blocked"]}})
        blocked = network_power(blocked_cfg)["network_power__mu_1_0__blocked"]
        # direct links add power on top of the reflected path
        for arch in ("fully-connected",):
            assert (res.row(8, arch, "network_sum_power_w").mean
                    > blocked.row(8, arch, "network_sum_power_w").mean)


def test_every_run_path_snap_equals_exhaustive(monkeypatch):
    # freq-response snaps every architecture at every frequency, network-power
    # under both link modes; every surface reaches _snap through snap_to_codebook
    from bdris import optimizer
    snap = optimizer._snap
    calls = []

    def spy(targets, arc, caps):
        calls.append(np.size(targets))
        picks = snap(targets, arc, caps)
        flat = np.ravel(targets)
        expected = caps[np.abs(flat[:, None] - arc.y[None, :]).argmin(axis=1)]
        assert np.array_equal(picks.ravel(), expected)
        return picks

    monkeypatch.setattr(optimizer, "_snap", spy)
    cfg = tiny_config(**{
        "freq-response": {"d_values": [8], "grid_ghz": {"start": 7.0, "stop": 8.0,
                                                        "step": 0.5}},
        "network-power": {"d_grid": [8], "weight_sets": [[0.3, 0.7]],
                          "link_modes": ["blocked", "available"]}})
    cfg["simulation"]["trials"] = 2
    cfg["optimization"]["fw_iterations"] = 20
    freq_response(cfg)
    network_power(cfg)
    assert sum(calls) > 0


class TestInterference:
    def test_degradation_positive_and_reference_flat(self):
        cfg = tiny_config(interference={
            "ris_positions_m": [[60.0, 20.0]], "d_grid": [16]})
        cfg["simulation"]["trials"] = 5
        cfg["optimization"]["fw_iterations"] = 40
        out = interference(cfg)
        res = out["interference_x60_y20"]
        ref = res.row(16, "interference-free", "sum_se_bs2").mean
        for arch in ("fully-connected", "group-connected", "single-connected"):
            actual = res.row(16, arch, "sum_se_bs2").mean
            assert actual < ref

    def test_step_rule_override_reaches_solver(self, monkeypatch):
        cfg = tiny_config(interference={
            "ris_positions_m": [[60.0, 20.0]], "d_grid": [4]})
        cfg["simulation"]["trials"] = 1
        cfg["simulation"]["architectures"] = ["fully-connected"]
        cfg["optimization"]["fw_iterations"] = 5
        cfg["optimization"]["fw_step_rule"] = "diminishing"
        rules = []
        solver = experiments.frank_wolfe_batch

        def spy(*args, **kwargs):
            rules.append(kwargs["step_rule"])
            return solver(*args, **kwargs)

        monkeypatch.setattr(experiments, "frank_wolfe_batch", spy)
        interference(cfg)
        assert rules == ["diminishing"]

    def test_reference_evaluated_once_per_trial(self, monkeypatch):
        cfg = tiny_config(interference={
            "ris_positions_m": [[60.0, 20.0]], "d_grid": [4]})
        cfg["optimization"]["fw_iterations"] = 5
        calls = []
        metric = experiments.sum_spectral_efficiency_outdated

        def spy(*args, **kwargs):
            calls.append(1)
            return metric(*args, **kwargs)

        monkeypatch.setattr(experiments, "sum_spectral_efficiency_outdated", spy)
        out = interference(cfg)["interference_x60_y20"]
        trials = cfg["simulation"]["trials"]
        archs = cfg["simulation"]["architectures"]
        assert len(calls) == trials * (len(archs) + 1)
        assert out.row(4, "interference-free", "sum_se_bs2").mean > 0

    def test_runner_table(self):
        assert set(RUNNERS) == {"freq-response", "target-shift", "per-bs-power",
                                "network-power", "interference"}


def test_rows_keep_their_samples(tmp_path):
    # rows hold the per-trial samples they aggregate; a CSV holds none of them
    cfg = tiny_config(**{
        "freq-response": {"d_values": [8], "grid_ghz": {"start": 7.0, "stop": 8.0,
                                                        "step": 0.5}},
        "target-shift": {"targets_ghz": [7.4], "half_span_ghz": 0.2, "d": 8},
        "per-bs-power": {"d_grid": [8], "weight_sets": [[0.3, 0.7]]},
        "network-power": {"d_grid": [8], "weight_sets": [[0.3, 0.7]]},
        "interference": {"ris_positions_m": [[60.0, 20.0]], "d_grid": [8]}})
    cfg["simulation"]["trials"] = 2
    cfg["optimization"]["fw_iterations"] = 5
    for name, runner in RUNNERS.items():
        for table, result in runner(cfg).items():
            _, back = read_results(write_results(str(tmp_path / f"{table}.csv"), result,
                                                 name, "00" * 32, 5))
            assert len(back.rows) == len(result.rows) > 0
            for row, read in zip(result.rows, back.rows):
                assert len(row.samples) == row.trials == 2
                assert aggregate(row.samples) == (row.mean, row.stderr)
                assert read.samples == ()
                assert (read.mean, read.stderr) == (row.mean, row.stderr)


class TestDedicatedConfigurationLooksRandomElsewhere:
    def test_unweighted_bs_sees_no_adaptation(self):
        # Dedicating every group to one base station must leave the other
        # base station's received power distributed exactly as if the plan
        # had been built from unrelated channels; uniform-random capacitance
        # plans set the comparable no-adaptation power level.
        sc = NetworkScenario(
            bs_positions=((0.0, 0.0), (80.0, 0.0)),
            user_positions=(((25.0, 10.0),), ((70.0, 10.0),)),
            ris_position=(40.0, 20.0), m=8, frequencies=(7.4e9, 8.0e9),
            eta_direct=3.5, eta_reflected=2.5, direct_links=BLOCKED)
        power = PowerConfig.uniform(sc, 0.1, 1e-7)
        topo = RisTopology.group_connected(8, 2)
        weights = ObjectiveWeights(mu=(1.0, 0.0), nu=((1.0,), (1.0,)))
        assignment = GroupAssignment.single(0, topo)
        ranges = ((0.1e-12, 2e-12), (0.001e-12, 0.6e-12))
        codebooks = {0: build_codebook(7.4e9, 6, *ranges, PARAMS)}

        from bdris.channel import effective_channels, zf_precoder

        def bs2_power(ch, theta):
            eff = effective_channels(ch, 1, theta)
            cross = eff @ zf_precoder(eff)
            return float(np.abs(cross[0, 0]) ** 2 * power.p * power.alpha[1][0])

        n = 150
        matched, mismatched, uniform = [], [], []
        for t in range(n):
            ch = sample_channels(sc, 8, stream_rng(31, t))
            other = sample_channels(sc, 8, stream_rng(31, t, purpose=2))
            for sample, source in ((matched, ch), (mismatched, other)):
                state = solve_trials([source], weights, topo, assignment, PARAMS.z0)[0]
                sample.append(bs2_power(ch, scattering_from_capacitances(
                    state.plan(codebooks), sc.frequencies[1], PARAMS)))
            plan = random_plan(topo, *ranges, stream_rng(31, t, purpose=3))
            uniform.append(bs2_power(ch, scattering_from_capacitances(
                plan, sc.frequencies[1], PARAMS)))

        assert stats.ks_2samp(matched, mismatched).pvalue > 0.05
        assert np.mean(matched) == pytest.approx(np.mean(uniform), rel=0.35)
