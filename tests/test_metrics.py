import math

import numpy as np
import pytest

from bdris.channel import (AVAILABLE, BLOCKED, NetworkScenario, PowerConfig,
                           effective_channels, sample_channels, stream_rng,
                           zf_precoder)
from bdris.circuit import CircuitParams, RisTopology
from bdris import experiments
from bdris.errors import DegenerateChannelError, RedrawBudgetError, SingularNetworkError
from bdris.experiments import Point, _run_sweep, solve_trials
from bdris.metrics import (TrialResult, aggregate, evaluate_received_powers,
                           network_sum_power, sum_power_per_bs,
                           sum_spectral_efficiency_outdated)
from bdris.optimizer import FwConfig, GroupAssignment, ObjectiveWeights

PARAMS = CircuitParams.defaults()


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def scenario(direct=BLOCKED, users=((25.0, 10.0),), m=6):
    return NetworkScenario(
        bs_positions=((0.0, 0.0),), user_positions=(tuple(users),),
        ris_position=(40.0, 20.0), m=m, frequencies=(7.4e9,),
        eta_direct=3.5, eta_reflected=2.5, direct_links=direct)


class TestReceivedPower:
    def test_zero_reflection_blocked_gives_zero(self):
        sc = scenario(BLOCKED)
        ch = sample_channels(sc, 4, stream_rng(0, 0))
        eff = effective_channels(ch, 0, np.zeros((4, 4)))
        assert np.all(eff == 0)

    def test_single_user_matched_filter_equality(self):
        # with one user the zero-forcing precoder is the matched filter, so
        # the received power hits the Cauchy-Schwarz bound ||e||^2 P alpha
        sc = scenario(BLOCKED)
        ch = sample_channels(sc, 4, stream_rng(0, 1))
        rng = np.random.default_rng(1)
        theta = crandn(rng, 4, 4)
        theta = theta + theta.T
        power = PowerConfig.uniform(sc, 0.1, 1e-7)
        result = evaluate_received_powers(ch, [np.conj(ch.f[0]) @ theta], power)
        eff = effective_channels(ch, 0, theta)
        assert result.user_powers[0][0] == pytest.approx(
            np.linalg.norm(eff) ** 2 * 0.1, rel=1e-12)

    def test_matches_naive_scalar_evaluation(self):
        # two users: |e_k^H p_k|^2 P alpha_k summed term by term
        sc = scenario(BLOCKED, users=((25.0, 10.0), (35.0, 0.0)))
        ch = sample_channels(sc, 4, stream_rng(0, 2))
        rng = np.random.default_rng(2)
        theta = crandn(rng, 4, 4)
        theta = theta + theta.T
        power = PowerConfig(p=0.2, alpha=((0.5, 0.25),), noise=1e-7)
        result = evaluate_received_powers(ch, [np.conj(ch.f[0]) @ theta], power)
        e = effective_channels(ch, 0, theta)
        p = zf_precoder(e)
        for k in range(2):
            gain = sum(e[k, i] * p[i, k] for i in range(6))
            expected = abs(gain) ** 2 * 0.2 * power.alpha[0][k]
            assert result.user_powers[0][k] == pytest.approx(expected, rel=1e-12)

    def test_linear_in_power_and_alpha(self):
        sc = scenario(BLOCKED)
        ch = sample_channels(sc, 4, stream_rng(0, 3))
        rng = np.random.default_rng(3)
        theta = crandn(rng, 4, 4)
        rows = np.conj(ch.f[0]) @ (theta + theta.T)

        def power(p, alpha):
            config = PowerConfig(p=p, alpha=((alpha,),), noise=1e-7)
            return evaluate_received_powers(ch, [rows], config).user_powers[0][0]

        base = power(0.1, 0.5)
        assert power(0.3, 0.5) == pytest.approx(3 * base, rel=1e-12)
        assert power(0.1, 1.0) == pytest.approx(2 * base, rel=1e-12)


class TestSums:
    def test_single_user_sums(self):
        result = TrialResult(user_powers=((0.25,), (0.5,)))
        assert sum_power_per_bs(result) == (0.25, 0.5)
        assert network_sum_power(result) == 0.75

    def test_hand_computed_two_by_two(self):
        result = TrialResult(user_powers=((1e-3, 2e-3), (4e-3, 8e-3)))
        assert sum_power_per_bs(result) == pytest.approx((3e-3, 12e-3), rel=1e-12)
        assert network_sum_power(result) == pytest.approx(15e-3, rel=1e-12)

    def test_network_sum_equals_sum_of_per_bs(self):
        rng = np.random.default_rng(4)
        powers = tuple(tuple(rng.uniform(size=2)) for _ in range(3))
        result = TrialResult(user_powers=powers)
        assert network_sum_power(result) == pytest.approx(
            sum(sum_power_per_bs(result)), rel=1e-12)


class TestSpectralEfficiencyOutdated:
    def test_zero_reflection_matches_interference_free(self):
        sc = scenario(AVAILABLE, users=((25.0, 10.0), (35.0, 0.0)))
        ch = sample_channels(sc, 4, stream_rng(5, 0))
        power = PowerConfig.uniform(sc, 0.1, 1e-7)
        se = sum_spectral_efficiency_outdated(ch, 0, np.conj(ch.f[0]) @ np.zeros((4, 4)),
                                              power)
        # reference: perfect zero-forcing on the true (direct-only) channels
        eff = effective_channels(ch, 0, np.zeros((4, 4)))
        prec = zf_precoder(eff)
        expected = sum(
            math.log2(1 + abs(eff[k] @ prec[:, k]) ** 2 * 0.1 * 0.5 / 1e-7)
            for k in range(2))
        assert se == pytest.approx(expected, rel=1e-9)

    def test_noise_monotonicity(self):
        sc = scenario(AVAILABLE, users=((25.0, 10.0), (35.0, 0.0)))
        ch = sample_channels(sc, 4, stream_rng(5, 1))
        rng = np.random.default_rng(6)
        theta = crandn(rng, 4, 4)
        theta = theta + theta.T
        p1 = PowerConfig.uniform(sc, 0.1, 1e-7)
        p2 = PowerConfig.uniform(sc, 0.1, 1e-6)
        rows = np.conj(ch.f[0]) @ theta
        assert (sum_spectral_efficiency_outdated(ch, 0, rows, p1)
                > sum_spectral_efficiency_outdated(ch, 0, rows, p2))

    def test_matches_brute_force_sinr(self):
        sc = scenario(AVAILABLE, users=((25.0, 10.0), (35.0, 0.0)))
        ch = sample_channels(sc, 3, stream_rng(5, 2))
        rng = np.random.default_rng(7)
        theta = crandn(rng, 3, 3)
        theta = theta + theta.T
        power = PowerConfig.uniform(sc, 0.1, 1e-7)
        se = sum_spectral_efficiency_outdated(ch, 0, np.conj(ch.f[0]) @ theta, power)
        prec = zf_precoder(effective_channels(ch, 0, np.zeros((3, 3))))
        actual = effective_channels(ch, 0, theta)
        expected = 0.0
        for k in range(2):
            sig = abs(actual[k] @ prec[:, k]) ** 2 * 0.1 * 0.5
            intf = sum(abs(actual[k] @ prec[:, u]) ** 2 * 0.1 * 0.5
                       for u in range(2) if u != k)
            expected += math.log2(1 + sig / (intf + 1e-7))
        assert se == pytest.approx(expected, rel=1e-12)

    def test_interference_positive_with_nonzero_reflection(self):
        sc = scenario(AVAILABLE, users=((25.0, 10.0), (35.0, 0.0)))
        power = PowerConfig.uniform(sc, 0.1, 1e-7)
        for t in range(5):
            ch = sample_channels(sc, 4, stream_rng(8, t))
            rng = np.random.default_rng(t)
            theta = crandn(rng, 4, 4)
            theta = theta + theta.T
            prec = zf_precoder(effective_channels(ch, 0, np.zeros((4, 4))))
            actual = effective_channels(ch, 0, theta)
            leakage = abs(actual[0] @ prec[:, 1]) ** 2
            assert leakage > 0

    def test_synchronized_zf_interference_negligible(self):
        sc = scenario(BLOCKED, users=((25.0, 10.0), (35.0, 0.0)), m=8)
        for t in range(5):
            ch = sample_channels(sc, 4, stream_rng(9, t))
            rng = np.random.default_rng(t)
            theta = crandn(rng, 4, 4)
            theta = theta + theta.T
            eff = effective_channels(ch, 0, theta)
            prec = zf_precoder(eff)
            cross = eff @ prec
            signal = min(abs(cross[k, k]) ** 2 for k in range(2))
            interference = max(abs(cross[0, 1]) ** 2, abs(cross[1, 0]) ** 2)
            assert interference < 1e-8 * signal


class TestAggregation:
    def test_mean_and_stderr(self):
        mean, stderr = aggregate([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5
        assert stderr == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2)

    def test_single_sample(self):
        assert aggregate([5.0]) == (5.0, 0.0)

    def test_constant_metric(self):
        mean, stderr = aggregate([2.0] * 50)
        assert mean == 2.0 and stderr == 0.0


class TestRunMonteCarlo:
    """The Monte Carlo engine, ``experiments._run_sweep``, under stub metrics."""

    D = 4
    SEED = 3
    WEIGHTS = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))

    def point(self, evaluate, direct=False, context="stub point"):
        topo = RisTopology.fully_connected(self.D)
        return Point(scenario(AVAILABLE if direct else BLOCKED), self.D, topo,
                     GroupAssignment.single(0, topo), self.WEIGHTS,
                     FwConfig(20) if direct else None, evaluate, context)

    def run(self, trials, evaluate, direct=False):
        return _run_sweep([self.point(evaluate, direct)], self.SEED, trials, PARAMS.z0)[0]

    def test_single_trial_reproduces_point_value(self):
        assert self.run(1, lambda chans, state: {"m": 42.0}) == {"m": [42.0]}

    def test_substream_stability(self):
        def first_gain(chans, state):
            return {"m": chans.g[0][0, 0].real}

        few = self.run(4, first_gain)["m"]
        many = self.run(8, first_gain)["m"]
        # growing the trial count keeps the earlier trials' draws
        assert many[:4] == few
        sc = scenario(BLOCKED)
        assert few == [sample_channels(sc, self.D, stream_rng(self.SEED, t)).g[0][0, 0].real
                       for t in range(4)]
        # and so does pooling the trials of several points into one batch
        pooled = _run_sweep([self.point(first_gain, direct=True)] * 2, self.SEED, 4,
                            PARAMS.z0)
        direct = [sample_channels(scenario(AVAILABLE), self.D,
                                  stream_rng(self.SEED, t)).g[0][0, 0].real
                  for t in range(4)]
        assert [s["m"] for s in pooled] == [direct, direct]

    def test_degenerate_trials_redrawn(self):
        for direct in (False, True):
            sc = scenario(AVAILABLE if direct else BLOCKED)
            topo = RisTopology.fully_connected(self.D)
            fw = FwConfig(20) if direct else None
            seen = []

            def evaluate(chans, state):
                seen.append((chans, state))
                if len(seen) == 1:
                    raise DegenerateChannelError("forced")
                return {"m": chans.g[0][0, 0].real}

            samples = self.run(4, evaluate, direct)["m"]
            redrawn = sample_channels(sc, self.D, stream_rng(self.SEED, 0, attempt=1))
            assert samples[0] == redrawn.g[0][0, 0].real
            assert samples[1:] == [
                sample_channels(sc, self.D, stream_rng(self.SEED, t)).g[0][0, 0].real
                for t in (1, 2, 3)]
            # the redrawn trial is solved again on its new draw
            expected = solve_trials([redrawn], self.WEIGHTS, topo,
                                    GroupAssignment.single(0, topo),
                                    PARAMS.z0, fw)[0]
            assert np.array_equal(seen[1][1].self_y, expected.self_y)
            assert np.array_equal(seen[1][1].inter_y, expected.inter_y)

    def test_too_many_degenerate_trials_fail(self):
        calls = []

        def evaluate(chans, state):
            calls.append(1)
            raise DegenerateChannelError("always")

        # 1% of 100 trials is one tolerated redraw; the second aborts
        with pytest.raises(RedrawBudgetError, match="degenerate trials at stub point"):
            self.run(100, evaluate)
        assert len(calls) == 2

    def states_by_draw(self, monkeypatch, trials, fail_retrieval=(), fail_evaluation=()):
        """Per trial, (first-gain sample, state) of a pooled direct-link sweep
        over two points, with ``SingularNetworkError`` forced on the
        retrieval calls or evaluations whose 0-based indices are given."""
        retrieve, calls, evaluations = experiments.relaxed_block_branches, [], []

        def flaky_retrieve(*args):
            calls.append(1)
            if len(calls) - 1 in fail_retrieval:
                raise SingularNetworkError("forced short circuit")
            return retrieve(*args)

        def evaluate(chans, state):
            evaluations.append(state)
            if len(evaluations) - 1 in fail_evaluation:
                raise SingularNetworkError("forced in scattering")
            return {"m": chans.g[0][0, 0].real}

        monkeypatch.setattr(experiments, "relaxed_block_branches", flaky_retrieve)
        points = [self.point(evaluate, direct=True, context=f"point {i}") for i in (0, 1)]
        assert [len(b) for b in experiments._batches(points, trials)] == [2 * trials]
        samples = _run_sweep(points, self.SEED, trials, PARAMS.z0)
        monkeypatch.setattr(experiments, "relaxed_block_branches", retrieve)
        return [s["m"] for s in samples], evaluations

    def test_singular_network_redrawn_in_pooled_batch(self, monkeypatch):
        # one batch holds both points' trials; trial 1 of point 0 fails in
        # retrieval, trial 2 of point 1 in evaluation (scattering)
        clean, clean_states = self.states_by_draw(monkeypatch, 3)
        retrieved, retrieved_states = self.states_by_draw(monkeypatch, 3, fail_retrieval={1})
        evaluated, evaluated_states = self.states_by_draw(monkeypatch, 3,
                                                          fail_evaluation={5})
        sc = scenario(AVAILABLE)

        def redrawn(t):
            return sample_channels(sc, self.D, stream_rng(self.SEED, t, attempt=1))

        assert retrieved == [[clean[0][0], redrawn(1).g[0][0, 0].real, clean[0][2]],
                             clean[1]]
        assert evaluated == [clean[0], [*clean[1][:2], redrawn(2).g[0][0, 0].real]]
        # each point spends its own budget: one redraw apiece is tolerated
        both, _ = self.states_by_draw(monkeypatch, 3, fail_retrieval={1},
                                      fail_evaluation={5})
        assert both == [retrieved[0], evaluated[1]]
        # every other unit of the batch keeps bitwise-identical results: a
        # unit failing retrieval is never evaluated, one failing evaluation
        # is evaluated once more after its redraw
        topo = RisTopology.fully_connected(self.D)
        assert len(retrieved_states) == 6 and len(evaluated_states) == 7
        for got, want in [*zip(retrieved_states[:1] + retrieved_states[2:],
                               clean_states[:1] + clean_states[2:]),
                          *zip(evaluated_states[:6], clean_states)]:
            assert np.array_equal(got.self_y, want.self_y)
            assert np.array_equal(got.inter_y, want.inter_y)
        # and each redrawn unit is solved again on its new draw
        for t, state in ((1, retrieved_states[1]), (2, evaluated_states[6])):
            expected = solve_trials([redrawn(t)], self.WEIGHTS, topo,
                                    GroupAssignment.single(0, topo), PARAMS.z0,
                                    FwConfig(20))[0]
            assert np.array_equal(state.self_y, expected.self_y)
            assert np.array_equal(state.inter_y, expected.inter_y)

    @pytest.mark.parametrize("place", ["retrieval", "evaluation"])
    def test_singular_networks_share_the_redraw_budget(self, monkeypatch, place):
        # one redraw of 3 trials is tolerated per point; the second aborts it
        fail = {"fail_" + place: {0, 1}}
        with pytest.raises(RedrawBudgetError, match="degenerate trials at point 0$"):
            self.states_by_draw(monkeypatch, 3, **fail)
