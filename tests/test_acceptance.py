"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or
``-rA``).  The desk-scale reproductions (criteria 8-11) call the shipped
runners and run a few minutes in total; everything else takes seconds.
Criteria 10 and 11 pair the architectures trial by trial through
``ResultRow.samples``, which rows hold in memory and CSVs never carry.
"""

import copy
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bdris.channel import (BLOCKED, NetworkScenario, effective_channels,
                           sample_channels, stream_rng, zf_precoder)
from bdris.circuit import (CircuitParams, RisTopology, random_plan,
                           impedance_from_scattering, scattering_from_capacitances,
                           scattering_from_impedance)
from bdris.cli import main as cli_main
from bdris.config import DEFAULT_CONFIG
from bdris.experiments import (freq_response, interference, per_bs_power, solve_trials,
                               target_shift)
from bdris.matrixkit import duplication_matrix, vec, vech
from bdris.optimizer import FwConfig, GroupAssignment, ObjectiveWeights
from reference_stack import reduced_stack

PARAMS = CircuitParams.defaults()
SEED = 1
TRIALS = 200


@contextmanager
def criterion(number, description, limit=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {limit}s budget")
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_instance(rng, d, m, users_per_bs):
    from bdris.channel import ChannelSet
    g, f, h = [], [], []
    for k_b in users_per_bs:
        g.append(crandn(rng, d, m))
        f.append(tuple(crandn(rng, d) for _ in range(k_b)))
        h.append(tuple(np.zeros(m, dtype=complex) for _ in range(k_b)))
    return ChannelSet(g=tuple(g), f=tuple(f), h=tuple(h))


def relaxed_thetas(ch, weights, topo, assignment, fw=None):
    """The engine's relaxed stacked solution per priority base station."""
    return solve_trials([ch], weights, topo, assignment, PARAMS.z0, fw)[0].thetas


def relaxed_objective(r, h, theta):
    return np.linalg.norm(r @ theta + h) ** 2


def test_criterion_01_duplication_identity():
    with criterion(1, "duplication identity exact on random symmetric matrices",
                   limit=1.0):
        rng = np.random.default_rng(SEED)
        for d in range(2, 11):
            dd = duplication_matrix(d)
            for _ in range(100):
                a = crandn(rng, d, d)
                a = a + a.T
                assert np.abs(dd @ vech(a) - vec(a)).max() < 1e-14 * max(
                    1.0, np.abs(a).max())


def test_criterion_02_expansion_bounds():
    with criterion(2, "norm expansion bounds of the duplication matrix", limit=5.0):
        rng = np.random.default_rng(SEED)
        for d in range(2, 11):
            dd = duplication_matrix(d)
            theta = crandn(rng, 10_000, d * (d + 1) // 2)
            expanded = np.linalg.norm(theta @ dd.T, axis=1)
            base = np.linalg.norm(theta, axis=1)
            assert np.all(expanded < np.sqrt(2) * base)
            assert np.all(expanded / np.sqrt(d) <= base)


def test_criterion_03_reflection_impedance_roundtrip():
    with criterion(3, "reflection -> impedance -> reflection roundtrip", limit=2.0):
        rng = np.random.default_rng(SEED)
        for case in range(100):
            d = 2 + case % 9
            a = crandn(rng, d, d)
            theta = a + a.T
            theta *= 0.9 / np.max(np.abs(np.linalg.eigvals(theta)))
            z = impedance_from_scattering(theta, PARAMS.z0)
            back = scattering_from_impedance(z, PARAMS.z0)
            assert np.abs(back - theta).max() < 1e-10


def test_criterion_04_lossless_unitarity():
    with criterion(4, "lossless circuits give unitary per-block reflection",
                   limit=5.0):
        lossless = CircuitParams(r=0.0, l0=PARAMS.l0, l=PARAMS.l, r_tilde=0.0,
                                 l0_tilde=PARAMS.l0_tilde, l_tilde=PARAMS.l_tilde,
                                 z0=PARAMS.z0)
        rng = np.random.default_rng(SEED)
        topologies = (RisTopology.fully_connected(16),
                      RisTopology.group_connected(16, 4),
                      RisTopology.single_connected(16))
        for topo in topologies:
            for f in (4e9, 7e9, 12e9):
                for _ in range(5):
                    plan = random_plan(topo, (0.1e-12, 2e-12),
                                       (0.001e-12, 0.6e-12), rng)
                    theta = scattering_from_capacitances(plan, f, lossless)
                    for g in range(topo.g):
                        sl = topo.group_slice(g)
                        block = theta[sl, sl]
                        gram = block @ block.conj().T
                        assert np.linalg.norm(gram - np.eye(topo.d_bar)) < 1e-7


def test_criterion_05_closed_form_optimality():
    with criterion(5, "closed-form solver beats random sampling and matches "
                      "the top singular value", limit=30.0):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            d = int(rng.integers(2, 11))
            m = int(rng.integers(1, 5))
            ch = random_instance(rng, d, m, (1, 1))
            weights = ObjectiveWeights.uniform((1, 1))
            topo = RisTopology.fully_connected(d)
            theta = relaxed_thetas(ch, weights, topo,
                                   GroupAssignment.single(0, topo))[0]
            r_hat, h_hat = reduced_stack(ch, weights)
            objective = relaxed_objective(r_hat, h_hat, theta)
            sigma = np.linalg.svd(r_hat, compute_uv=False)[0]
            assert abs(objective - sigma ** 2) < 1e-9 * sigma ** 2
            samples = crandn(rng, d * (d + 1) // 2, 10_000)
            samples /= np.linalg.norm(samples, axis=0)
            best = (np.linalg.norm(r_hat @ samples, axis=0) ** 2).max()
            assert objective >= best - 1e-12 * objective


def test_criterion_06_conditional_gradient_matches_svd():
    with criterion(6, "conditional gradient matches the closed form within 1% "
                      "at 500 iterations", limit=60.0):
        rng = np.random.default_rng(SEED)
        fw = FwConfig(500)
        for _ in range(50):
            d = 2 * int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            ch = random_instance(rng, d, m, (1, 1))
            weights = ObjectiveWeights.uniform((1, 1))
            topo = RisTopology.fully_connected(d)
            assignment = GroupAssignment.single(0, topo)
            r_hat, h_hat = reduced_stack(ch, weights)
            closed = relaxed_objective(
                r_hat, h_hat, relaxed_thetas(ch, weights, topo, assignment)[0])
            iterative = relaxed_objective(
                r_hat, h_hat, relaxed_thetas(ch, weights, topo, assignment, fw)[0])
            assert abs(iterative - closed) < 1e-2 * closed
            topo = RisTopology(d, 2)
            assignment = GroupAssignment.even_split((0, 1), topo)
            blocked = relaxed_thetas(ch, weights, topo, assignment)
            direct = relaxed_thetas(ch, weights, topo, assignment, fw)
            for bs in (0, 1):
                r_s, h_s = reduced_stack(ch, weights, topo, bs)
                closed = relaxed_objective(r_s, h_s, blocked[bs])
                gap = abs(relaxed_objective(r_s, h_s, direct[bs]) - closed)
                assert gap < 1e-2 * closed


def test_criterion_07_zero_forcing_property():
    with criterion(7, "zero-forcing leakage and precoder norms", limit=10.0):
        scenario = NetworkScenario(
            bs_positions=((0.0, 0.0),),
            user_positions=(((25.0, 10.0), (35.0, 0.0)),),
            ris_position=(40.0, 20.0), m=40, frequencies=(7.4e9,),
            eta_direct=3.5, eta_reflected=2.5, direct_links=BLOCKED)
        topo = RisTopology.fully_connected(16)
        rng = np.random.default_rng(SEED)
        plan = random_plan(topo, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12), rng)
        theta = scattering_from_capacitances(plan, 7.4e9, PARAMS)
        for t in range(1000):
            ch = sample_channels(scenario, 16, stream_rng(SEED, t))
            eff = effective_channels(ch, 0, theta)
            prec = zf_precoder(eff)
            assert np.abs(np.linalg.norm(prec, axis=0) - 1.0).max() < 1e-10
            cross = eff @ prec
            for k in range(2):
                for u in range(2):
                    if u != k:
                        leak = abs(cross[k, u]) / np.linalg.norm(eff[k])
                        assert leak < 1e-8


def _freq_response_curves():
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["simulation"]["trials"] = TRIALS
    cfg["simulation"]["seed"] = SEED
    cfg["simulation"]["architectures"] = ["fully-connected", "single-connected"]
    cfg["experiments"]["freq-response"]["d_values"] = [100]
    cfg["experiments"]["freq-response"]["grid_ghz"] = {
        "start": 1.0, "stop": 16.0, "step": 0.5}
    return freq_response(cfg)["freq_response"]


@pytest.mark.slow
def test_criterion_08_frequency_response_reproduction():
    with criterion(8, "desk-scale frequency response: peak level, bandwidth, "
                      "architecture gap"):
        result = _freq_response_curves()
        x, fc_mean, fc_se = result.curve("fully-connected D=100", "received_power_w")
        _, sc_mean, sc_se = result.curve("single-connected D=100", "received_power_w")
        peak = fc_mean.max()
        peak_ghz = x[int(np.argmax(fc_mean))]
        print(f"  fully-connected peak {peak * 1e3:.4f} mW at {peak_ghz:.1f} GHz")
        assert 0.08e-3 <= peak <= 0.16e-3
        band = (x >= 4.5) & (x <= 11.5)
        assert np.all(fc_mean[band] >= 0.85 * peak)
        compare = (x >= 4.0) & (x <= 12.0)
        margin = fc_mean[compare] - sc_mean[compare]
        needed = 2.0 * np.hypot(fc_se[compare], sc_se[compare])
        assert np.all(margin >= needed)


@pytest.mark.slow
def test_criterion_09_target_shift_reproduction():
    with criterion(9, "fixed-plan sweep: maximum at the priority frequency and "
                      "sharper fully-connected falloff"):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["simulation"]["trials"] = TRIALS
        cfg["simulation"]["seed"] = SEED
        cfg["simulation"]["architectures"] = ["fully-connected", "single-connected"]
        cfg["experiments"]["target-shift"] = {
            "targets_ghz": [7.4], "half_span_ghz": 1.0, "step_ghz": 0.2, "d": 100,
            "tracked_bs": 1, "tracked_user": 1}
        result = target_shift(cfg)["target_shift_7p4ghz"]
        x, fc_mean, _ = result.curve("fully-connected", "received_power_w")
        _, sc_mean, _ = result.curve("single-connected", "received_power_w")
        step = 0.2
        peak_ghz = x[int(np.argmax(fc_mean))]
        assert abs(peak_ghz - 7.4) <= step + 1e-9

        def relative_drop(mean):
            at = dict(zip(np.round(x, 3), mean))
            target = at[7.4]
            return 1.0 - 0.5 * (at[6.4] + at[8.4]) / target

        fc_drop = relative_drop(fc_mean)
        sc_drop = relative_drop(sc_mean)
        print(f"  relative drop 1 GHz away: fully {fc_drop:.3f}, single {sc_drop:.3f}")
        assert fc_drop > sc_drop


@pytest.mark.slow
def test_criterion_10_interference_reproduction():
    with criterion(10, "outdated-CSI interference grows toward the victim and "
                       "sits in the expected band"):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["simulation"]["trials"] = TRIALS
        cfg["simulation"]["seed"] = SEED
        cfg["simulation"]["architectures"] = ["fully-connected", "single-connected"]
        out = interference(cfg)
        keys = ["interference_x20_y20", "interference_x40_y20", "interference_x60_y20"]
        degradation = {}
        for key in keys:
            res = out[key]
            ref = res.row(80, "interference-free", "sum_se_bs2").mean
            degradation[key] = {
                arch: ref - res.row(80, arch, "sum_se_bs2").mean
                for arch in ("fully-connected", "single-connected")
            }
        for arch in ("fully-connected", "single-connected"):
            values = [degradation[k][arch] for k in keys]
            print(f"  {arch} degradation vs position: "
                  + " ".join(f"{v:.2f}" for v in values))
            assert values[0] < values[1] < values[2]
        gap = degradation["interference_x60_y20"]["fully-connected"]
        assert 2.0 <= gap <= 6.0
        # The architectures run on common per-trial fading, so the
        # fully-vs-single comparison is a paired one: the fully-connected
        # surface must not degrade the victim significantly less than the
        # single-connected one (one-sided allowance of two paired standard
        # errors; the underlying effect is at Monte Carlo noise level).
        res = out["interference_x60_y20"]
        fully, single = (np.array(res.row(80, arch, "sum_se_bs2").samples)
                         for arch in ("fully-connected", "single-connected"))
        diff = single - fully
        stderr = diff.std(ddof=1) / np.sqrt(diff.size)
        print(f"  paired fully-minus-single degradation: {diff.mean():+.3f}"
              f" +- {stderr:.3f} bits/s/Hz")
        assert diff.mean() >= -2.0 * stderr


@pytest.mark.slow
def test_criterion_11_architecture_ordering():
    with criterion(11, "sum-power ordering fully >= group >= single with "
                       "2-stderr separation from D = 60"):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["simulation"]["trials"] = TRIALS
        cfg["simulation"]["seed"] = SEED
        cfg["experiments"]["per-bs-power"].update(weight_sets=[[0.3, 0.7]],
                                                  link_modes=["blocked"])
        res = per_bs_power(cfg)["per_bs_power__mu_0.3_0.7__blocked"]
        for d in (20, 40, 60, 80, 100):
            for b in (0, 1):
                fully, group, single = (
                    np.array(res.row(d, arch, f"sum_power_bs{b + 1}_w").samples)
                    for arch in ("fully-connected", "group-connected", "single-connected"))
                assert fully.mean() >= group.mean() >= single.mean()
                if d >= 60:
                    # architectures share per-trial fading, so the gap is
                    # tested on the paired per-trial differences
                    for hi, lo in ((fully, group), (group, single)):
                        diff = hi - lo
                        stderr = diff.std(ddof=1) / np.sqrt(diff.size)
                        z = diff.mean() / stderr
                        print(f"  D={d} bs{b + 1}: z={z:.1f}")
                        assert diff.mean() >= 2.0 * stderr


def test_criterion_12_byte_identical_reruns(tmp_path):
    with criterion(12, "identical config and seed reproduce identical bytes"):
        overrides = []
        for item in ("simulation.trials=5",
                     "experiments.freq-response.d_values=[8]",
                     "experiments.freq-response.grid_ghz={start: 7.0, stop: 8.0, step: 0.5}"):
            overrides += ["--override", item]
        for sub in ("a", "b"):
            rc = cli_main(["run", "freq-response", "--seed", "11",
                           "--out", str(tmp_path / sub)] + overrides)
            assert rc == 0
        first = (tmp_path / "a" / "freq_response.csv").read_bytes()
        second = (tmp_path / "b" / "freq_response.csv").read_bytes()
        assert first == second
