import copy
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from bdris.channel import NetworkScenario, sample_channels, stream_rng
from bdris.circuit import RisTopology, build_codebook, scattering_from_capacitances
from bdris import experiments
from bdris.config import DEFAULT_CONFIG, circuit_params, load_config, validate_config
from bdris.errors import DegenerateChannelError
from bdris.experiments import (RUNNERS, fc_target_bs, freq_response, interference,
                               network_power, per_bs_power, priority_assignment,
                               solve_trials, target_shift, topology_for)
from bdris.optimizer import (GroupAssignment, ObjectiveWeights,
                             first_column, frank_wolfe_batch, reduced_adjoint)
from bdris.metrics import aggregate
from bdris.results import read_results, write_results
from reference_model import crandn, curve, effective_channels, random_plan, row, uniform_power

PARAMS = circuit_params(DEFAULT_CONFIG)


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
        assert a.owner == (0, 1)

    def test_priority_assignment_dedicated(self):
        weights = ObjectiveWeights(mu=(1.0, 0.0), nu=((1.0,), (1.0,)))
        topo = RisTopology(8, 2)
        a = priority_assignment(weights, topo)
        assert a.bs == (0,)
        assert a.owner == (0, 0)

    def test_fc_target_keeps_preferred_when_weighted(self):
        weights = ObjectiveWeights(mu=(0.3, 0.7), nu=((1.0,), (1.0,)))
        assert fc_target_bs(weights, (7.4e9, 8.0e9), 7.4e9) == 0

    def test_fc_target_moves_off_zero_weight(self):
        weights = ObjectiveWeights(mu=(0.0, 1.0), nu=((1.0,), (1.0,)))
        assert fc_target_bs(weights, (7.4e9, 8.0e9), 7.4e9) == 1

    @pytest.mark.parametrize("name", ["freq-sweep", "direct-links", "power-grid"])
    def test_workload_config_validates(self, name, tmp_path):
        path = bench_module("workloads").WORKLOADS[name].write_config(tmp_path)
        cfg, lines, source = load_config(str(path))
        assert validate_config(cfg, source, lines) == []

    @pytest.mark.parametrize("name", ["freq-sweep", "direct-links", "power-grid"])
    def test_workload_passes_the_gate(self, name, tmp_path):
        # the benchmark's correctness gate, in process: seed 1 against the
        # committed reference rows at rtol 1e-9
        import bdris.cli
        gate, workload = bench_module("gate"), bench_module("workloads").WORKLOADS[name]
        out = tmp_path / "out"
        assert bdris.cli.main(["run", workload.experiment, "--seed", "1", "--out", str(out),
                               "--config", str(workload.write_config(tmp_path))]) == 0
        reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / name / "seed1"
        assert gate.compare(gate.read_dir(str(out)), gate.read_dir(str(reference)), 1e-9,
                            workload.trials) == []

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
        ris_position=(40.0, 20.0), m=3, eta_direct=3.5, eta_reflected=2.5)

    def test_one_batch_per_chunk_over_trials_and_priority_bs(self, monkeypatch):
        sc = self.SC
        d, seed, trials, fw = 8, 7, 5, 30
        weights = ObjectiveWeights(mu=(0.3, 0.7), nu=((1.0,), (1.0,)))
        topo = topology_for("group-connected", d, 2)
        assignment = priority_assignment(weights, topo)
        assert assignment.bs == (0, 1)
        draw = sample_channels(sc, d, stream_rng(seed, 0), direct=True)
        rows = [len(experiments._stack(f, topo.g)[0]) for f in
                experiments._subproblems(draw, weights, topo, assignment).values()]
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
        point = experiments.Point(sc, topo, assignment, weights, fw, evaluate,
                                  "batching")
        chunks = [[0, 1], [2, 3], [4]]
        experiments._run_sweep([point], seed, trials, PARAMS.z0)
        assert [n for n, _ in calls] == [4, 4, 2]

        radius = float(np.sqrt(topo.g))
        draws = [sample_channels(sc, d, stream_rng(seed, t), direct=True) for t in range(trials)]
        stacks = [{bs: (*experiments._stack(f, topo.g), f) for bs, f in
                   experiments._subproblems(c, weights, topo, assignment).items()}
                  for c in draws]
        for (_, (acc, c)), chunk in zip(calls, chunks):
            part = [stacks[t] for t in chunk]
            acc, c = acc.reshape(len(part), 2, rows[0]), c.reshape(len(part), 2)
            separate = {bs: solver(np.stack([s[bs][0] for s in part]),
                                   np.stack([s[bs][1] for s in part]), radius, fw,
                                   np.stack([first_column(s[bs][2]) for s in part]))
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
        # group connected: two 3-row instances.  The points share one draw
        # per trial and are walked trial-major; the blocked fully-connected
        # point rides on its direct-link partner at no cost in bytes, so it
        # closes no batch and is solved from its partner's Gram matrix.
        sc = self.SC
        weights = ObjectiveWeights(mu=(0.3, 0.7), nu=((1.0,), (1.0,)))
        fc, gc = topology_for("fully-connected", 8, 2), topology_for("group-connected", 8, 2)
        fw = 10

        def point(topo, fw):
            assignment = (GroupAssignment.single(0, topo) if topo.g == 1
                          else priority_assignment(weights, topo))
            return experiments.Point(sc, topo, assignment, weights, fw,
                                     lambda chans, state: {"m": 0.0}, "mixed")

        points = [point(fc, fw), point(gc, fw), point(fc, None), point(gc, fw)]
        monkeypatch.setattr(experiments, "BATCH_BYTES", 6 * 6 * 16 + 2 * 3 * 3 * 16)
        calls, stacks, leading = [], [], []
        solver, stack_fc, stack_gc = (experiments.frank_wolfe_batch, experiments.stack_fc,
                                      experiments.stack_gc)
        singular = experiments.leading_right_singular_vector

        def spy(gram, h, radius, *args, **kwargs):
            calls.append((gram.shape, np.asarray(radius).tolist()))
            return solver(gram, h, radius, *args, **kwargs)

        monkeypatch.setattr(experiments, "frank_wolfe_batch", spy)
        monkeypatch.setattr(experiments, "stack_fc",
                            lambda *a: stacks.append("fc") or stack_fc(*a))
        monkeypatch.setattr(experiments, "stack_gc",
                            lambda *a: stacks.append("gc") or stack_gc(*a))
        monkeypatch.setattr(experiments, "leading_right_singular_vector",
                            lambda k: leading.append(len(calls)) or singular(k))
        experiments._run_sweep(points, 2, 2, PARAMS.z0)
        root2 = float(np.sqrt(2))
        # trial 0: FC, its rider and GC fill the first batch; the second GC
        # point opens the next, which takes trial 1's FC and rider; trial
        # 1's GC points close it and share the last batch
        assert calls == [((1, 6, 6), [1.0]), ((2, 3, 3), [root2, root2]),
                         ((2, 3, 3), [root2, root2]), ((1, 6, 6), [1.0]),
                         ((4, 3, 3), [root2] * 4)]
        # one Gram matrix per instance: the blocked solves build none, and
        # each runs right before its partner's (1, 6, 6) solver call
        assert sorted(stacks) == ["fc"] * 2 + ["gc"] * 8
        assert leading == [0, 3]

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


class TestSharedDraws:
    """A point's samples do not depend on the sweep it runs in, while the
    sweep draws each (scenario, D, trial) once and builds one Gram matrix per
    (weights, architecture, D, trial) for both link modes."""

    @staticmethod
    def bits(samples):
        return [{key: np.array(values).tobytes() for key, values in s.items()}
                for s in samples]

    @pytest.mark.parametrize("runner, key", [(interference, "interference"),
                                             (network_power, "network-power")])
    def test_samples_independent_of_the_sweep(self, monkeypatch, runner, key):
        cfg = tiny_config(**{key: {"d_grid": [4, 8]}})
        cfg["simulation"]["trials"] = 2
        cfg["optimization"]["fw_iterations"] = 25
        if key == "interference":
            cfg["experiments"][key]["ris_positions_m"] = [[40.0, 20.0], [60.0, 20.0]]
        else:
            cfg["experiments"][key]["weight_sets"] = [[0.3, 0.7], [1.0, 0.0]]
            assert cfg["experiments"][key]["link_modes"] == ["blocked", "available"]
        sweep, sweeps = experiments._run_sweep, []
        monkeypatch.setattr(experiments, "_run_sweep",
                            lambda *args: sweeps.append(args) or sweep(*args))
        counts = {"draws": 0, "stacks": 0}

        def counting(name, fn):
            def spy(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(experiments, "sample_channels",
                            counting("draws", experiments.sample_channels))
        for name in ("stack_fc", "stack_gc"):
            monkeypatch.setattr(experiments, name, counting("stacks", getattr(experiments, name)))
        runner(copy.deepcopy(cfg))
        (points, seed, trials, z0), = sweeps
        pairs = {(p.scenario, p.topo.d) for p in points}
        assert counts["draws"] == len(pairs) * trials == (2 if key == "network-power"
                                                            else 4) * trials
        # the point-major walk stacked every sub-problem of every (point, trial)
        point_major = trials * sum(len(p.assignment.bs) for p in points)
        if key == "network-power":
            assert 2 * counts["stacks"] == point_major
        else:
            assert counts["stacks"] == point_major  # no blocked points
        together = sweep(points, seed, trials, z0)
        alone = [sweep([p], seed, trials, z0)[0] for p in points]
        assert self.bits(together) == self.bits(alone)


class TestFreqResponse:
    def test_rows_and_determinism(self):
        cfg = tiny_config(**{"freq-response": {
            "d_values": [8], "grid_ghz": {"start": 7.0, "stop": 8.0, "step": 0.5}}})
        out1 = freq_response(cfg)["freq_response"]
        out2 = freq_response(copy.deepcopy(cfg))["freq_response"]
        assert out1 == out2
        labels = {r.architecture for r in out1}
        assert labels == {"fully-connected D=8", "group-connected D=8",
                          "single-connected D=8"}
        assert all(r.mean > 0 for r in out1)
        assert all(r.trials == 3 for r in out1)
        x, m, s = curve(out1, "fully-connected D=8", "received_power_w")
        assert np.array_equal(x, [7.0, 7.5, 8.0])


class TestTargetShift:
    def test_fully_connected_peaks_at_target(self):
        cfg = tiny_config(**{"target-shift": {
            "targets_ghz": [7.4], "half_span_ghz": 0.6, "step_ghz": 0.3, "d": 16}})
        cfg["simulation"]["trials"] = 10
        out = target_shift(cfg)
        assert set(out) == {"target_shift_7p4ghz"}
        res = out["target_shift_7p4ghz"]
        x, m, _ = curve(res, "fully-connected", "received_power_w")
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


TWO_TARGETS = {**FREQ_SWEEPS[1][2], "targets_ghz": [7.4, 7.6]}  # grids share 7.4 and 7.6


@pytest.mark.parametrize("runner, key, section, per_trial_and_point", [
    (freq_response, "freq-response", FREQ_SWEEPS[0][2], 3),  # one per frequency
    (target_shift, "target-shift", FREQ_SWEEPS[1][2], 1),  # the plan is held
    (target_shift, "target-shift", TWO_TARGETS, 2),  # one per target
], ids=["freq-response", "target-shift", "target-shift-two-targets"])
def test_tracked_user_snap_counts(monkeypatch, runner, key, section, per_trial_and_point):
    # each (architecture, trial) is solved once, however many targets it feeds,
    # and snapped once per target onto that target's one codebook
    counts = dict.fromkeys(["snap_to_codebook", "leading_right_singular_vector",
                            "build_codebook"], 0)
    for name in counts:
        def spy(*args, name=name, wrapped=getattr(experiments, name)):
            counts[name] += 1
            return wrapped(*args)
        monkeypatch.setattr(experiments, name, spy)
    cfg = tiny_config(**{key: section})
    runner(cfg)
    solves = cfg["simulation"]["trials"] * len(cfg["simulation"]["architectures"])
    assert counts == {"snap_to_codebook": solves * per_trial_and_point,
                      "leading_right_singular_vector": solves,
                      "build_codebook": per_trial_and_point}


def test_target_shift_targets_run_as_if_alone():
    # the targets share each trial's solve, and every row and sample keeps the
    # bits of a run of its target alone, where the grids overlap too
    both = target_shift(tiny_config(**{"target-shift": TWO_TARGETS}))
    alone = {}
    for t in TWO_TARGETS["targets_ghz"]:
        alone |= target_shift(tiny_config(**{"target-shift": {**TWO_TARGETS, "targets_ghz": [t]}}))
    assert list(both) == list(alone)
    for name, rows in both.items():
        assert rows == alone[name]
        for a, b in zip(rows, alone[name]):
            assert np.array([a.mean, a.stderr, *a.samples]).tobytes() == \
                np.array([b.mean, b.stderr, *b.samples]).tobytes()


@pytest.mark.parametrize("runner, key, section", [s[:3] for s in FREQ_SWEEPS],
                         ids=["freq-response", "target-shift"])
def test_tracked_user_gets_whole_budget(runner, key, section):
    cfg = tiny_config(**{key: section})
    cfg["simulation"]["trials"] = 1
    skewed = copy.deepcopy(cfg)
    skewed["power"]["alpha"] = [[0.1, 0.9], [0.5, 0.5]]
    assert runner(cfg) == runner(skewed)


class TestPowerSweeps:
    def test_per_bs_power_blocked(self):
        cfg = tiny_config(**{"per-bs-power": {
            "d_grid": [8], "weight_sets": [[0.3, 0.7]], "link_modes": ["blocked"]}})
        out = per_bs_power(cfg)
        assert set(out) == {"per_bs_power__mu_0.3_0.7__blocked"}
        res = out["per_bs_power__mu_0.3_0.7__blocked"]
        metrics = {r.metric for r in res}
        assert metrics == {"sum_power_bs1_w", "sum_power_bs2_w"}
        assert all(r.mean > 0 for r in res)

    def test_network_power_available_uses_direct_links(self):
        cfg = tiny_config(**{"network-power": {
            "d_grid": [8], "weight_sets": [[1.0, 0.0]], "link_modes": ["available"]}})
        cfg["optimization"]["fw_iterations"] = 40
        out = network_power(cfg)
        res = out["network_power__mu_1_0__available"]
        assert {r.metric for r in res} == {"network_sum_power_w"}
        blocked_cfg = tiny_config(**{"network-power": {
            "d_grid": [8], "weight_sets": [[1.0, 0.0]], "link_modes": ["blocked"]}})
        blocked = network_power(blocked_cfg)["network_power__mu_1_0__blocked"]
        # direct links add power on top of the reflected path
        for arch in ("fully-connected",):
            assert (row(res, 8, arch, "network_sum_power_w").mean
                    > row(blocked, 8, arch, "network_sum_power_w").mean)


def assert_global_maximiser(gram, h, radius, acc):
    """The trust-region certificate (More and Sorensen 1983) of the relaxed
    direct-link solve theta = R^H acc: w = K acc + h equals lam acc with
    lam = ||R^H w|| / radius, and lam >= lambda_max(K), shown by a Cholesky
    factorisation of lam (1 + 1e-10) I - K."""
    w = gram @ acc + h
    lam = np.sqrt(np.vdot(w, gram @ w).real) / radius
    assert np.linalg.norm(w - lam * acc) < 1e-10 * np.linalg.norm(w)
    np.linalg.cholesky(lam * (1 + 1e-10) * np.eye(len(h)) - gram)
    return lam


class TestCertificates:
    def test_every_relaxed_solve_of_a_sweep_is_certified(self, monkeypatch):
        fw_solves, blocked_solves = [], []
        solver, leading = experiments.frank_wolfe_batch, experiments.leading_right_singular_vector

        def fw_spy(gram, h, radius, iterations, r_e1):
            inputs = gram.copy(), h.copy(), np.broadcast_to(radius, len(h)).copy()
            acc, c = solver(gram, h, radius, iterations, r_e1)
            fw_solves.extend(zip(*inputs, acc, c))
            return acc, c

        def blocked_spy(k):
            v, sigma = leading(k)
            # k may be a batch slot that the conditional-gradient solver overwrites
            blocked_solves.append((k.copy(), v, sigma))
            return v, sigma

        monkeypatch.setattr(experiments, "frank_wolfe_batch", fw_spy)
        monkeypatch.setattr(experiments, "leading_right_singular_vector", blocked_spy)
        cfg = tiny_config(**{"network-power": {"d_grid": [4, 8],
                                               "weight_sets": [[0.3, 0.7], [1.0, 0.0]]}})
        cfg["simulation"]["trials"] = 2
        network_power(cfg)
        # D and trials, times the instances of FC, GC and SC per weight set
        assert len(fw_solves) == len(blocked_solves) == 2 * 2 * (1 + 2 + 2 + 1 + 1 + 1)
        for gram, h, radius, acc, c in fw_solves:
            assert c == 0.0
            assert_global_maximiser(gram, h, radius, acc)
        for k, v, sigma in blocked_solves:
            assert np.linalg.norm(k @ v - sigma * v) <= 1e-12 * sigma
            rayleigh = np.vdot(v, k @ v).real
            assert rayleigh >= np.linalg.eigvalsh(k)[-1] * (1 - 1e-12)
            np.linalg.cholesky(rayleigh * (1 + 1e-10) * np.eye(len(v)) - k)

    @pytest.mark.parametrize("seed", range(3))
    def test_hard_case(self, seed):
        # h orthogonal to K's leading eigenvector u1 and small: the maximiser
        # has lam = lambda_max(K), so lam I - K is singular and the Cholesky
        # test holds only with its tolerance
        rng = np.random.default_rng(seed)
        r = crandn(rng, 6, 12)
        gram = r @ r.conj().T
        vals, vecs = np.linalg.eigh(gram)
        h = crandn(rng, 6)
        h = 1e-3 * (h - vecs[:, -1] * np.vdot(vecs[:, -1], h))
        acc, c = frank_wolfe_batch(gram[None].copy(), h[None], 1.0, 500, r[None, :, 0])
        assert c[0] == 0.0
        lam = assert_global_maximiser(gram, h, 1.0, acc[0])
        assert abs(lam - vals[-1]) <= 1e-12 * vals[-1]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(lam * (1 - 1e-10) * np.eye(6) - gram)


def test_every_run_path_snap_equals_exhaustive(monkeypatch):
    # freq-response snaps every architecture at every frequency, network-power
    # under both link modes; every surface reaches _snap through snap_to_codebook
    from bdris import optimizer
    snap = optimizer._snap
    calls = []

    def spy(targets, arc):
        calls.append(np.shape(targets))
        picks = snap(targets, arc)
        flat = np.ravel(targets)
        assert picks.shape == np.shape(targets)
        assert np.array_equal(picks.ravel(), np.abs(flat[:, None] - arc.y[None, :]).argmin(axis=1))
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
    # self targets (groups, d_bar) of D = 8: fully connected, two groups on
    # one base station or split over two, single connected likewise
    assert {(1, 8), (2, 4), (1, 4), (8, 1), (4, 1)} <= set(calls)


class TestInterference:
    def test_degradation_positive_and_reference_flat(self):
        cfg = tiny_config(interference={
            "ris_positions_m": [[60.0, 20.0]], "d_grid": [16]})
        cfg["simulation"]["trials"] = 5
        cfg["optimization"]["fw_iterations"] = 40
        out = interference(cfg)
        res = out["interference_x60_y20"]
        ref = row(res, 16, "interference-free", "sum_se_bs2").mean
        for arch in ("fully-connected", "group-connected", "single-connected"):
            actual = row(res, 16, arch, "sum_se_bs2").mean
            assert actual < ref

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
        assert row(out, 4, "interference-free", "sum_se_bs2").mean > 0

    def test_runner_table(self):
        assert set(RUNNERS) == {"freq-response", "target-shift", "per-bs-power",
                                "network-power", "interference"}


def test_rows_keep_their_samples(tmp_path):
    # rows hold the per-trial samples they aggregate; a CSV holds none of them.
    # Each row's (variable, value, architecture, metric) occurs once per table.
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
        for table, rows in runner(cfg).items():
            keys = [(r.variable, r.value, r.architecture, r.metric) for r in rows]
            assert len(set(keys)) == len(keys), (name, table)
            _, back = read_results(write_results(str(tmp_path / f"{table}.csv"), rows,
                                                 name, "00" * 32, 5))
            assert len(back) == len(rows) > 0
            for row, read in zip(rows, back):
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
            ris_position=(40.0, 20.0), m=8, eta_direct=3.5, eta_reflected=2.5)
        power = uniform_power(sc, 0.1, 1e-7)
        topo = RisTopology.group_connected(8, 2)
        weights = ObjectiveWeights(mu=(1.0, 0.0), nu=((1.0,), (1.0,)))
        assignment = GroupAssignment.single(0, topo)
        ranges = ((0.1e-12, 2e-12), (0.001e-12, 0.6e-12))
        codebooks = {0: build_codebook(7.4e9, 6, *ranges, PARAMS)}

        from bdris.channel import zf_precoder

        def bs2_power(ch, theta):
            eff = effective_channels(ch, 1, theta)
            cross = eff @ zf_precoder(eff)
            return float(np.abs(cross[0, 0]) ** 2 * power.p * power.alpha[1][0])

        n = 150
        matched, mismatched, uniform = [], [], []
        for t in range(n):
            ch = sample_channels(sc, 8, stream_rng(31, t), direct=False)
            other = sample_channels(sc, 8, np.random.default_rng([31, t, 2]), direct=False)
            for sample, source in ((matched, ch), (mismatched, other)):
                state = solve_trials([source], weights, topo, assignment, PARAMS.z0)[0]
                sample.append(bs2_power(ch, scattering_from_capacitances(
                    state.plan(codebooks), 8.0e9, PARAMS)))
            plan = random_plan(topo, *ranges, np.random.default_rng([31, t, 3]))
            uniform.append(bs2_power(ch, scattering_from_capacitances(
                plan, 8.0e9, PARAMS)))

        assert stats.ks_2samp(matched, mismatched).pvalue > 0.05
        assert np.mean(matched) == pytest.approx(np.mean(uniform), rel=0.35)
