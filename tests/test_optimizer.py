import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdris import circuit
from bdris.channel import ChannelSet
from bdris.circuit import Codebook, RisTopology, build_codebook, scattering_from_capacitances
from bdris.config import DEFAULT_CONFIG, circuit_params
from bdris.errors import DegenerateInputError, SingularNetworkError
from bdris.experiments import _state_from_thetas, solve_trials
from bdris.matrixkit import _canonical_phase
from bdris.optimizer import (GroupAssignment, ObjectiveWeights,
                             _snap, first_column, frank_wolfe_batch, reduced_adjoint,
                             relaxed_block_branches, snap_to_codebook, stack_factors,
                             stack_fc, stack_gc)
from reference_model import (LOSSLESS, crandn, duplication_matrix, frank_wolfe, group_slice,
                             impedance_from_scattering, plan_from_matrix, plan_matrix,
                             random_channels, random_plan, reduced_stack, relaxed_objective,
                             uniform_weights, unvech, vech)

PARAMS = circuit_params(DEFAULT_CONFIG)
SELF_RANGE = (0.1e-12, 2e-12)
INTER_RANGE = (0.001e-12, 0.6e-12)


def exhaustive_snap(targets, codewords, caps):
    """Nearest codeword to each admittance target over every codeword; argmin
    keeps the first of equal distances, i.e. the smallest capacitance."""
    return caps[np.abs(targets[:, None] - 1.0 / codewords[None, :]).argmin(axis=1)]


def solve_one(ch, weights, topo=None, assignment=None, fw=None):
    """The engine's state for one channel draw; by default the whole surface,
    fully connected, serves base station 0."""
    topo = topo or RisTopology.fully_connected(len(ch.g[0]))
    assignment = assignment or GroupAssignment.single(0, topo)
    return solve_trials([ch], weights, topo, assignment, PARAMS.z0, fw)[0]


def plan_from_theta(theta, topo, codebook):
    """Capacitance plan the engine snaps a relaxed reflection matrix onto."""
    stacked = np.concatenate([vech(theta[group_slice(topo, g), group_slice(topo, g)])
                              for g in range(topo.g)])
    state = _state_from_thetas({0: stacked}, topo,
                               GroupAssignment.single(0, topo),
                               PARAMS.z0)
    return state.plan({0: codebook})


def objective_direct(channels, weights, theta):
    """Independent evaluation of the weighted received-power objective."""
    total = 0.0
    for b in range(len(channels.g)):
        for k in range(len(channels.f[b])):
            row = (channels.f[b][k].conj() @ theta @ channels.g[b]
                   + channels.h[b][k].conj())
            total += weights.mu[b] * weights.nu[b][k] * np.linalg.norm(row) ** 2
    return total


class TestObjectiveWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(mu=(0.0,), nu=((0.0, 0.0),))
        with pytest.raises(ValueError):
            ObjectiveWeights(mu=(-1.0,), nu=((1.0,),))
        with pytest.raises(ValueError):
            ObjectiveWeights(mu=(1.0, 1.0), nu=((1.0,),))

    def test_uniform(self):
        w = uniform_weights((2, 2))
        assert w.mu == (1.0, 1.0) and w.nu == ((0.5, 0.5), (0.5, 0.5))


class TestGroupAssignment:
    def test_even_split(self):
        topo = RisTopology(8, 4)
        a = GroupAssignment.even_split((0, 1), topo)
        assert a.owner == (0, 0, 1, 1)
        assert a.bs == (0, 1)
        a.validate(topo)

    def test_coverage_enforced(self):
        topo = RisTopology(8, 2)
        bad = GroupAssignment(owner=(0,))
        with pytest.raises(ValueError):
            bad.validate(topo)


def row_space_objective(gram, h, c):
    """||R theta + h||^2 at theta = R^H c, which is ||K c + h||^2."""
    return np.linalg.norm(gram @ c + h) ** 2


def row_space_point(ch, weights, bss, topo, c):
    """theta = R^H c from the closed-form adjoint, as a block-diagonal matrix."""
    theta = reduced_adjoint(stack_factors(ch, weights, bss), c, topo.g)
    full = np.zeros((topo.d, topo.d), dtype=complex)
    for k, part in enumerate(theta.reshape(topo.g, -1)):
        full[group_slice(topo, k), group_slice(topo, k)] = unvech(part, topo.d_bar)
    return full


class TestStacking:
    def test_reduced_block_matches_kron_times_duplication(self):
        # one kron-times-duplication block per group of d_bar consecutive
        # elements, side by side: the Gram matrix and the adjoint of that R
        rng = np.random.default_rng(0)
        for d, m, d_bar in ((1, 3, 1), (3, 2, 3), (5, 4, 5), (6, 2, 3), (4, 3, 1), (8, 2, 2)):
            ch = random_channels(rng, d, m, (1,))
            weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
            topo = RisTopology(d, d // d_bar)
            g, f = ch.g[0], ch.f[0][0]
            explicit = np.hstack([
                np.kron(g[k:k + d_bar].T, f[k:k + d_bar].conj()[None, :])
                @ duplication_matrix(d_bar) for k in range(0, d, d_bar)])
            gram, _ = stack_gc(stack_factors(ch, weights, (0,)), topo.g)
            assert np.abs(gram - explicit @ explicit.conj().T).max() < 1e-13
            c = crandn(rng, m)
            theta = reduced_adjoint(stack_factors(ch, weights, (0,)), c, topo.g)
            assert np.abs(theta - explicit.conj().T @ c).max() < 1e-13

    def test_objective_identity_single_user(self):
        rng = np.random.default_rng(1)
        ch = random_channels(rng, 2, 1, (1,))
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        gram, h_hat = stack_fc(stack_factors(ch, weights, range(len(ch.g))))
        c = crandn(rng, 1)
        theta = row_space_point(ch, weights, (0,), RisTopology.fully_connected(2), c)
        lhs = row_space_objective(gram, h_hat, c)
        assert lhs == pytest.approx(objective_direct(ch, weights, theta), rel=1e-12)

    def test_objective_identity_weighted_multiuser(self):
        rng = np.random.default_rng(2)
        ch = random_channels(rng, 4, 3, (2, 1), direct=True)
        weights = ObjectiveWeights(mu=(0.3, 0.7), nu=((0.5, 0.5), (1.0,)))
        gram, h_hat = stack_fc(stack_factors(ch, weights, range(len(ch.g))))
        c = crandn(rng, 9)
        theta = row_space_point(ch, weights, (0, 1), RisTopology.fully_connected(4), c)
        lhs = row_space_objective(gram, h_hat, c)
        assert lhs == pytest.approx(objective_direct(ch, weights, theta), rel=1e-10)

    def test_zero_weight_rows_are_dropped(self):
        rng = np.random.default_rng(3)
        ch = random_channels(rng, 3, 2, (1, 1), direct=True)
        weights = ObjectiveWeights(mu=(1.0, 0.0), nu=((1.0,), (1.0,)))
        gram, h_hat = stack_fc(stack_factors(ch, weights, range(len(ch.g))))
        assert gram.shape == (2, 2) and h_hat.shape == (2,)
        # only base station 0's user rows remain
        r_hat, _ = reduced_stack(ch, ObjectiveWeights(mu=(1.0,), nu=((1.0,),)), bs=0)
        assert np.abs(gram - r_hat @ r_hat.conj().T).max() < 1e-13
        c = crandn(rng, 2)
        theta = row_space_point(ch, weights, (0, 1), RisTopology.fully_connected(3), c)
        lhs = row_space_objective(gram, h_hat, c)
        assert lhs == pytest.approx(objective_direct(ch, weights, theta), rel=1e-12)

    def test_sub_problem_without_weighted_users_rejected(self):
        # a priority base station whose users all weigh zero has no rows
        ch = random_channels(np.random.default_rng(35), 4, 2, (1, 1))
        weights = ObjectiveWeights(mu=(1.0, 1.0), nu=((0.0,), (1.0,)))
        with pytest.raises(DegenerateInputError, match="no positive-weight user"):
            stack_gc(stack_factors(ch, weights, (0,)), 2)
        assert stack_gc(stack_factors(ch, weights, (1,)), 2)[0].shape == (2, 2)

    def test_blocked_links_zero_offset(self):
        rng = np.random.default_rng(4)
        ch = random_channels(rng, 3, 2, (2,))
        _, h_hat = stack_fc(stack_factors(ch, uniform_weights((2,)), (0,)))
        assert np.all(h_hat == 0)

    def test_gc_objective_identity(self):
        rng = np.random.default_rng(5)
        topo = RisTopology(4, 2)
        ch = random_channels(rng, 4, 3, (2,), direct=True)
        weights = ObjectiveWeights(mu=(0.8,), nu=((0.5, 0.5),))
        gram, h_s = stack_gc(stack_factors(ch, weights, (0,)), topo.g)
        c = crandn(rng, 6)
        theta = row_space_point(ch, weights, (0,), topo, c)
        assert np.all(theta[:2, 2:] == 0) and np.all(theta[2:, :2] == 0)
        lhs = row_space_objective(gram, h_s, c)
        assert lhs == pytest.approx(objective_direct(ch, weights, theta), rel=1e-10)


class TestClosedFormStack:
    """The run path's Gram matrix, adjoint, fallback column and blocked
    solution against R built from kron and duplication_matrix."""

    @given(st.sampled_from(["fully-connected", "group-connected", "single-connected"]),
           st.integers(1, 6), st.integers(2, 4), st.integers(1, 4),
           st.lists(st.integers(1, 2), min_size=1, max_size=2),
           st.lists(st.booleans(), min_size=4, max_size=4), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_explicit_stack(self, arch, d_bar, g, m, users, zero, seed):
        topo = {"fully-connected": RisTopology.fully_connected(d_bar),
                "group-connected": RisTopology.group_connected(g * d_bar, g),
                "single-connected": RisTopology.single_connected(g)}[arch]
        rng = np.random.default_rng(seed)
        ch = random_channels(rng, topo.d, m, tuple(users), direct=True)
        # zero user weights where drawn, but base station 0's first user counts
        nu = tuple(tuple(0.0 if zero[2 * b + k] and (b, k) != (0, 0)
                         else float(rng.uniform(0.1, 1.0)) for k in range(n))
                   for b, n in enumerate(users))
        weights = ObjectiveWeights(mu=tuple(rng.uniform(0.1, 1.0, len(users))), nu=nu)
        if topo.g == 1:
            factors = stack_factors(ch, weights, range(len(users)))
            (gram, h), (r, r_h) = stack_fc(factors), reduced_stack(ch, weights)
        else:
            factors = stack_factors(ch, weights, (0,))
            (gram, h), (r, r_h) = stack_gc(factors, topo.g), reduced_stack(ch, weights, topo, 0)
        exact = r @ r.conj().T
        assert np.abs(gram - exact).max() <= 1e-12 * np.abs(exact).max()
        assert np.array_equal(h, r_h)
        c = crandn(rng, len(h))
        adjoint = r.conj().T @ c
        scale = np.linalg.norm(r) * np.linalg.norm(c)
        assert np.abs(reduced_adjoint(factors, c, topo.g) - adjoint).max() <= 1e-12 * scale
        assert np.abs(first_column(factors) - r[:, 0]).max() <= 1e-15 * np.abs(r).max()
        blocked = ChannelSet(g=ch.g, f=ch.f, h=tuple(tuple(0 * x for x in hb)
                                                     for hb in ch.h))
        theta = solve_one(blocked, weights, topo).thetas[0]
        expected = np.sqrt(topo.g) * _canonical_phase(
            np.linalg.svd(r, full_matrices=False)[2][0].conj())
        assert np.abs(theta - expected).max() <= 1e-10


class TestSolveFcBlocked:
    def test_rank_one_instance(self):
        # single user, single antenna: the maximizer is the conjugated row
        rng = np.random.default_rng(6)
        ch = random_channels(rng, 3, 1, (1,))
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        theta = solve_one(ch, weights).thetas[0]
        r_hat, _ = reduced_stack(ch, weights)
        expected = r_hat[0].conj()
        expected /= np.linalg.norm(expected)
        pivot = expected[np.flatnonzero(np.abs(expected) > 1e-12)[0]]
        expected *= np.conj(pivot) / abs(pivot)
        assert np.abs(theta - expected).max() < 1e-10

    def test_beats_random_sampling(self):
        rng = np.random.default_rng(7)
        ch = random_channels(rng, 4, 3, (1, 2))
        weights = ObjectiveWeights(mu=(0.4, 0.6), nu=((1.0,), (0.5, 0.5)))
        theta = solve_one(ch, weights).thetas[0]
        r_hat, h_hat = reduced_stack(ch, weights)
        samples = crandn(rng, 10, 10_000)
        samples /= np.linalg.norm(samples, axis=0)
        best = (np.linalg.norm(r_hat @ samples, axis=0) ** 2).max()
        assert relaxed_objective(r_hat, h_hat, theta) >= best - 1e-12

    def test_objective_is_squared_top_singular_value(self):
        rng = np.random.default_rng(8)
        ch = random_channels(rng, 5, 2, (2,))
        weights = uniform_weights((2,))
        theta = solve_one(ch, weights).thetas[0]
        r_hat, h_hat = reduced_stack(ch, weights)
        sigma = np.linalg.svd(r_hat, compute_uv=False)[0]
        objective = relaxed_objective(r_hat, h_hat, theta)
        assert objective == pytest.approx(sigma ** 2, rel=1e-9)
        assert objective_direct(ch, weights, unvech(theta, 5)) == pytest.approx(
            objective, rel=1e-9)

    def test_scale_invariance_of_direction(self):
        rng = np.random.default_rng(9)
        ch = random_channels(rng, 3, 2, (1,))
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        theta = solve_one(ch, weights).thetas[0]
        scaled = ChannelSet(
            g=tuple(3.0 * g for g in ch.g),
            f=ch.f,
            h=ch.h,
        )
        theta2 = solve_one(scaled, weights).thetas[0]
        assert np.abs(theta - theta2).max() < 1e-9
        objective = relaxed_objective(*reduced_stack(ch, weights), theta)
        objective2 = relaxed_objective(*reduced_stack(scaled, weights), theta2)
        assert objective2 == pytest.approx(9.0 * objective, rel=1e-9)

    def test_feasibility_and_symmetry(self):
        rng = np.random.default_rng(10)
        ch = random_channels(rng, 6, 2, (2,))
        theta = solve_one(ch, uniform_weights((2,))).thetas[0]
        theta_matrix = unvech(theta, 6)
        assert np.linalg.norm(theta) <= 1 + 1e-9
        assert np.abs(theta_matrix - theta_matrix.T).max() < 1e-10
        assert np.linalg.norm(theta_matrix) / np.sqrt(6) <= 1 + 1e-9

    def test_zero_channels_rejected(self):
        ch = ChannelSet(g=(np.zeros((3, 2), dtype=complex),),
                        f=((np.zeros(3, dtype=complex),),),
                        h=((np.zeros(2, dtype=complex),),))
        with pytest.raises(DegenerateInputError):
            solve_one(ch, ObjectiveWeights(mu=(1.0,), nu=((1.0,),)))


def reference_frank_wolfe_batch(gram, h, radius, iterations, r_e1):
    """The batched conditional gradient with the general update on every
    iteration (line-search step 1.0, the discarded iterate weighted by
    keep = 0.0, fallback terms weighted by exact zeros), kept as the oracle
    the solver must reproduce bit for bit.  ``radius`` is a scalar or a (T,)
    array of per-instance radii.  Returns ``acc``, ``c``, the
    (T, iterations - 1) objectives ||w||^2 before each iteration and the
    (T,) iterations after which each instance froze (0: never).

    The freeze rule: after every 10th iteration, an instance whose iterate
    moved by at most 1e-14 of its norm in that iteration keeps that iterate
    (and its ``c`` and objective) from then on.  The whole batch runs every
    iteration, and frozen instances discard their updates."""
    radius = np.broadcast_to(np.asarray(radius, dtype=float), gram.shape[:1])
    t, rows, _ = gram.shape
    w = h.astype(complex).copy()
    acc = np.zeros((t, rows), dtype=complex)
    c = np.zeros(t)
    frozen_at = np.zeros(t, dtype=int)
    history = np.zeros((t, iterations - 1))
    step, keep = 1.0, 0.0
    for i in range(1, iterations):
        history[:, i - 1] = np.einsum("tr,tr->t", w.conj(), w).real
        v = np.matmul(gram, w[..., None])[..., 0]
        grad_sq = np.einsum("tr,tr->t", w.conj(), v).real
        flat = grad_sq <= 0.0
        grad_norm = np.sqrt(np.where(flat, 1.0, grad_sq))
        scale = np.where(flat, 0.0, step * radius / grad_norm)
        fall = np.where(flat, step * radius, 0.0)
        moving = frozen_at == 0
        prev = acc.copy()
        acc[moving] = (keep * acc + scale[:, None] * w)[moving]
        c[moving] = (keep * c + fall)[moving]
        w[moving] = (keep * w + step * h + scale[:, None] * v + fall[:, None] * r_e1)[moving]
        if i % 10 == 0:
            still = (np.linalg.norm(acc - prev, axis=1)
                     <= 1e-14 * np.linalg.norm(acc, axis=1))
            frozen_at[moving & still] = i
    return acc, c, history, frozen_at


def batch_theta(r, acc, c):
    """theta = r^H acc + c e1 of each instance."""
    theta = np.matmul(r.conj().transpose(0, 2, 1), acc[..., None])[..., 0]
    theta[:, 0] += c
    return theta


def assert_matches_reference(r, h, radius, iterations):
    gram = np.matmul(r, r.conj().transpose(0, 2, 1))
    got = frank_wolfe_batch(gram.copy(), h, radius, iterations, r[:, :, 0])
    ref = reference_frank_wolfe_batch(gram, h, radius, iterations, r[:, :, 0])
    assert len(got) == 2
    for x, y in zip(got, ref):
        assert np.array_equal(x, y)


class TestFrankWolfeReference:
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 12),
           st.floats(0.5, 3.0), st.integers(1, 60), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_general_update(self, t, rows, cols, radius, iterations, seed):
        rng = np.random.default_rng(seed)
        assert_matches_reference(crandn(rng, t, rows, cols), crandn(rng, t, rows),
                                 radius, iterations)

    @given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 12),
           st.integers(1, 60), st.booleans(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_array_radius_equals_per_instance_scalar_calls(self, t, rows, cols, iterations,
                                                           flat, seed):
        rng = np.random.default_rng(seed)
        r, h = crandn(rng, t, rows, cols), crandn(rng, t, rows)
        if flat:
            r[0] = 0.0      # instance 0's gradient vanishes: the general update runs
        radius = rng.uniform(0.5, 3.0, t)
        assert_matches_reference(r, h, radius, iterations)
        gram = np.matmul(r, r.conj().transpose(0, 2, 1))
        got = frank_wolfe_batch(gram.copy(), h, radius, iterations, r[:, :, 0])
        for i in range(t):
            one = frank_wolfe_batch(gram[i:i + 1], h[i:i + 1], float(radius[i]),
                                    iterations, r[i:i + 1, :, 0])
            for x, y in zip(got, one):
                assert np.array_equal(x[i:i + 1], y)

    def test_zero_matrix_instance_takes_fallback_every_iteration(self):
        rng = np.random.default_rng(40)
        r = crandn(rng, 3, 4, 6)
        r[1] = 0.0          # grad_sq of instance 1 is exactly 0 on every iteration
        assert_matches_reference(r, crandn(rng, 3, 4), 1.2, 40)

    # The ids keep the case names these had when a second step rule existed;
    # with ``trace`` the oracle's objectives also show the flat start.
    @pytest.mark.parametrize("trace", [False, True],
                             ids=["False-line-search", "True-line-search"])
    def test_zero_offset_instance_is_flat_only_first(self, trace):
        rng = np.random.default_rng(41)
        r = crandn(rng, 2, 4, 6)
        h = crandn(rng, 2, 4)
        h[0] = 0.0          # w = 0 at the start, then the fallback step moves it
        assert_matches_reference(r, h, 0.8, 40)
        if trace:
            gram = np.matmul(r, r.conj().transpose(0, 2, 1))
            history = reference_frank_wolfe_batch(gram, h, 0.8, 40, r[:, :, 0])[2]
            assert history[0, 0] == 0.0
            assert (history[0, 1:] > 0.0).all()


class TestFrankWolfe:
    def test_matches_blocked_solution(self):
        rng = np.random.default_rng(11)
        ch = random_channels(rng, 8, 2, (1, 1))
        weights = uniform_weights((1, 1))
        r_hat, h_hat = reduced_stack(ch, weights)
        closed = relaxed_objective(r_hat, h_hat, solve_one(ch, weights).thetas[0])
        iterative = relaxed_objective(
            r_hat, h_hat, solve_one(ch, weights, fw=500).thetas[0])
        assert abs(iterative - closed) / closed < 1e-2

    def test_zero_matrix_flat_objective(self):
        rng = np.random.default_rng(12)
        h = crandn(rng, 4)
        theta, obj = frank_wolfe(np.zeros((4, 6), dtype=complex), h, 1.0, 50)
        assert obj == pytest.approx(np.linalg.norm(h) ** 2)
        assert np.linalg.norm(theta) <= 1 + 1e-9

    def test_scalar_aligns_phase(self):
        rng = np.random.default_rng(13)
        ch = random_channels(rng, 1, 2, (1,), direct=True)
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        theta = solve_one(ch, weights, fw=2000).thetas[0]
        r_hat, h_hat = reduced_stack(ch, weights)
        target_phase = np.angle(r_hat.conj().T @ h_hat)[0]
        assert abs(theta[0]) == pytest.approx(1.0, abs=1e-2)
        assert np.angle(theta[0]) == pytest.approx(target_phase, abs=1e-2)

    def test_iterates_feasible_and_ascending_tail(self):
        rng = np.random.default_rng(14)
        r = crandn(rng, 5, 12)
        h = crandn(rng, 5)
        iterations = 400
        assert_matches_reference(r[None], h[None], 1.0, iterations)
        theta, obj = frank_wolfe(r, h, 1.0, iterations)
        assert np.linalg.norm(theta) <= 1 + 1e-9
        history = reference_frank_wolfe_batch((r @ r.conj().T)[None], h[None], 1.0,
                                              iterations, r[None, :, 0])[2]
        tail = np.append(history[0], obj)[iterations // 2:]
        assert np.all(np.diff(tail) >= -1e-9 * max(1.0, obj))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(15)
        rs = crandn(rng, 7, 4, 9)
        hs = crandn(rng, 7, 4)
        grams = np.matmul(rs, rs.conj().transpose(0, 2, 1))
        batch = batch_theta(rs, *frank_wolfe_batch(grams, hs, 1.3, 120, rs[:, :, 0]))
        for i in range(7):
            single, _ = frank_wolfe(rs[i], hs[i], 1.3, 120)
            assert np.abs(batch[i] - single).max() < 1e-12

    def test_batch_chunking_is_transparent(self):
        rng = np.random.default_rng(30)
        rs = crandn(rng, 9, 3, 7)
        hs = crandn(rng, 9, 3)
        grams = np.matmul(rs, rs.conj().transpose(0, 2, 1))
        whole = frank_wolfe_batch(grams.copy(), hs, 1.0, 80, rs[:, :, 0])
        parts = [frank_wolfe_batch(grams[a:b], hs[a:b], 1.0, 80, rs[a:b, :, 0])
                 for a, b in ((0, 2), (2, 3), (3, 9))]
        for x, part in zip(whole, zip(*parts)):
            assert np.array_equal(x, np.concatenate(part))

    def test_invalid_iterations(self):
        rng = np.random.default_rng(31)
        r, h = crandn(rng, 2, 3, 5), crandn(rng, 2, 3)
        with pytest.raises(ValueError, match="iteration count"):
            frank_wolfe_batch(np.matmul(r, r.conj().transpose(0, 2, 1)), h, 1.0, 0,
                              r[:, :, 0])


class TestFrankWolfeFreeze:
    def test_frozen_instance_ignores_the_cap(self):
        # this instance freezes before iteration 500; run on to the cap, its
        # iterate would still change in its last bits at iteration 5000
        rng = np.random.default_rng(3)
        r, h = crandn(rng, 1, 40, 200), crandn(rng, 1, 40)
        gram = np.matmul(r, r.conj().transpose(0, 2, 1))
        assert 0 < reference_frank_wolfe_batch(gram, h, 1.0, 500, r[:, :, 0])[3][0] < 500
        short, long = (frank_wolfe_batch(gram.copy(), h, 1.0, cap, r[:, :, 0])
                       for cap in (500, 5000))
        for x, y in zip(short, long):
            assert np.array_equal(x, y)

    @given(st.integers(2, 6), st.integers(1, 6), st.integers(1, 10), st.integers(21, 120),
           st.lists(st.booleans(), min_size=5, max_size=5), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_any_split_gives_the_same_bits(self, t, rows, cols, iterations, cuts, seed):
        # offsets of very different sizes freeze at different checks
        rng = np.random.default_rng(seed)
        r = crandn(rng, t, rows, cols)
        h = crandn(rng, t, rows) * 10.0 ** rng.uniform(-3, 1, (t, 1))
        radius = rng.uniform(0.5, 3.0, t)
        gram = np.matmul(r, r.conj().transpose(0, 2, 1))
        ref = reference_frank_wolfe_batch(gram, h, radius, iterations, r[:, :, 0])
        assume(len(set(ref[3])) > 1)
        bounds = [0, *(i + 1 for i, cut in enumerate(cuts[:t - 1]) if cut), t]
        parts = [frank_wolfe_batch(gram[a:b].copy(), h[a:b], radius[a:b], iterations,
                                   r[a:b, :, 0]) for a, b in zip(bounds, bounds[1:])]
        whole = frank_wolfe_batch(gram.copy(), h, radius, iterations, r[:, :, 0])
        for x, y, part in zip(whole, ref, zip(*parts)):
            assert np.array_equal(x, y)
            assert np.array_equal(x, np.concatenate(part))


class TestSolveGc:
    def test_g1_reduces_to_fully_connected(self):
        rng = np.random.default_rng(16)
        ch = random_channels(rng, 4, 2, (1,))
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        topo = RisTopology(4, 1)
        # the one-group sub-problem, solved from its own stack
        r_gc, _ = reduced_stack(ch, weights, topo, 0)
        _, s, vh = np.linalg.svd(r_gc, full_matrices=False)
        v, sigma = _canonical_phase(vh[0].conj()), s[0]
        fc = solve_one(ch, weights, topo).thetas[0]
        assert np.abs(unvech(v, 4) - unvech(fc, 4)).max() < 1e-10
        assert sigma ** 2 == pytest.approx(
            relaxed_objective(*reduced_stack(ch, weights), fc), rel=1e-9)

    def test_single_connected_limit(self):
        rng = np.random.default_rng(17)
        d = 5
        ch = random_channels(rng, d, 3, (1,))
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        topo = RisTopology.single_connected(d)
        state = solve_one(ch, weights, topo)
        # one coefficient, hence one self admittance and no inter branch, per element
        assert state.thetas[0].shape == (d,) and state.self_y.shape == (d, 1)
        assert state.inter_y.shape == (d, 0)
        # the diagonal-restricted stacked matrix has columns conj(f_e) g_e
        cols = (ch.g[0] * ch.f[0][0].conj()[:, None]).T
        v1 = np.linalg.svd(cols)[2][0].conj()
        stacked = state.thetas[0] / np.sqrt(d)
        align = abs(np.vdot(v1, stacked)) / np.linalg.norm(stacked)
        assert align == pytest.approx(1.0, abs=1e-9)

    def test_beats_random_sampling(self):
        rng = np.random.default_rng(18)
        topo = RisTopology(4, 2)
        ch = random_channels(rng, 4, 2, (1, 1))
        weights = ObjectiveWeights(mu=(0.5, 0.5), nu=((1.0,), (1.0,)))
        assignment = GroupAssignment.even_split((0, 1), topo)
        gc = solve_one(ch, weights, topo, assignment)
        for bs in (0, 1):
            r_s, h_s = reduced_stack(ch, weights, topo, bs)
            samples = crandn(rng, r_s.shape[1], 10_000)
            samples *= np.sqrt(2) / np.linalg.norm(samples, axis=0)
            best = (np.linalg.norm(r_s @ samples, axis=0) ** 2).max()
            assert relaxed_objective(r_s, h_s, gc.thetas[bs]) >= best - 1e-12

    def test_direct_matches_blocked_at_many_iterations(self):
        rng = np.random.default_rng(19)
        topo = RisTopology(6, 2)
        ch = random_channels(rng, 6, 2, (1, 1))
        weights = uniform_weights((1, 1))
        assignment = GroupAssignment.even_split((0, 1), topo)
        blocked = solve_one(ch, weights, topo, assignment)
        direct = solve_one(ch, weights, topo, assignment, 500)
        for bs in (0, 1):
            r_s, h_s = reduced_stack(ch, weights, topo, bs)
            closed = relaxed_objective(r_s, h_s, blocked.thetas[bs])
            rel = abs(relaxed_objective(r_s, h_s, direct.thetas[bs]) - closed) / closed
            assert rel < 1e-2
            assert np.linalg.norm(direct.thetas[bs]) <= np.sqrt(2) + 1e-9

    def test_s1_g1_matches_fc_direct(self):
        rng = np.random.default_rng(20)
        ch = random_channels(rng, 3, 2, (1,), direct=True)
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        topo = RisTopology(3, 1)
        # the one-group sub-problem, solved from its own stack
        gc, _ = frank_wolfe(*reduced_stack(ch, weights, topo, 0), 1.0, 300)
        fc = solve_one(ch, weights, topo, fw=300).thetas[0]
        assert np.abs(unvech(gc, 3) - unvech(fc, 3)).max() < 1e-12


def symmetric_block(rng, d, radius):
    """Complex symmetric d x d matrix of spectral norm ``radius`` (< 1 keeps
    I + Theta and I - Theta well conditioned)."""
    a = crandn(rng, d, d)
    s = a + a.T
    return s * (radius / np.linalg.norm(s, 2))


class TestRelaxedBlockBranches:
    @given(st.sampled_from(["fully-connected", "group-connected", "single-connected"]),
           st.integers(1, 6), st.integers(2, 4), st.floats(0.0, 0.9),
           st.floats(1.0, 100.0), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_impedance_reference(self, arch, d_bar, g, radius, z0, seed):
        # each group's branch admittances, from its priority base station's
        # block, against Theta -> Z -> Y = Z^-1 one group at a time
        topo = {"fully-connected": RisTopology.fully_connected(d_bar),
                "group-connected": RisTopology.group_connected(g * d_bar, g),
                "single-connected": RisTopology.single_connected(g)}[arch]
        n = topo.d_bar
        bs = (0,) if topo.g == 1 else (0, 1)
        assignment = GroupAssignment.even_split(bs, topo)
        rng = np.random.default_rng(seed)
        blocks = {b: [symmetric_block(rng, n, radius) for _ in range(topo.g)] for b in bs}
        thetas = {b: np.concatenate([vech(blk) for blk in blocks[b]]) for b in bs}
        state = _state_from_thetas(thetas, topo, assignment, z0)
        iu, ju = np.triu_indices(n, 1)
        for k, b in enumerate(assignment.owner):
            assert state.owner[k] == b
            y = np.linalg.inv(impedance_from_scattering(blocks[b][k], z0))
            scale = np.abs(y).max()
            assert np.abs(state.self_y[k] - y.sum(axis=1)).max() <= 1e-10 * scale
            assert np.abs(state.inter_y[k] + y[iu, ju]).max(initial=0.0) <= 1e-10 * scale

    def test_open_port_gives_zero_admittance_row(self):
        # Theta eigenvalue +1 on element 0 of group 1: that port is open, so
        # its self and inter-element admittances are zero, and no error
        rng = np.random.default_rng(33)
        blocks = np.stack([symmetric_block(rng, 3, 0.5) for _ in range(2)])
        blocks[1, 0, :] = blocks[1, :, 0] = 0.0
        blocks[1, 0, 0] = 1.0
        self_y, inter_y = relaxed_block_branches(blocks, PARAMS.z0)
        iu, _ = np.triu_indices(3, 1)
        assert self_y[1, 0] == 0.0 and np.all(inter_y[1, iu == 0] == 0.0)
        assert np.all(self_y[1, 1:] != 0.0) and np.all(inter_y[1, iu > 0] != 0.0)
        cb = build_codebook(7.4e9, 4, SELF_RANGE, INTER_RANGE, PARAMS)
        self_c, _ = snap_to_codebook(self_y, inter_y, cb)
        assert self_c[1, 0] == cb.self_caps[np.argmax(np.abs(cb.self_z))]

    @pytest.mark.parametrize("k,gap", [(1, 0.0), (2, 1e-14)], ids=["exact", "near"])
    def test_short_circuit_names_its_group(self, k, gap):
        # Theta eigenvalue -1 (up to gap) in group k: a short-circuited port
        rng = np.random.default_rng(34)
        blocks = np.stack([symmetric_block(rng, 3, 0.5) for _ in range(3)])
        blocks[k, 0, :] = blocks[k, :, 0] = 0.0
        blocks[k, 0, 0] = -1.0 + gap
        with pytest.raises(SingularNetworkError, match=f"^group {k}: "):
            relaxed_block_branches(blocks, PARAMS.z0)

    def test_singular_solution_raises_through_the_solver(self):
        # f = e1 and g = e2 leave R the one row [0, 1, 0]: the relaxed block
        # is exactly [[0, 1], [1, 0]], so I + Theta is exactly singular and
        # the guarded inverse falls back to one inverse per matrix
        ch = ChannelSet(g=(np.array([[0], [1]], dtype=complex),),
                        f=((np.array([1, 0], dtype=complex),),),
                        h=((np.zeros(1, dtype=complex),),))
        topo = RisTopology.fully_connected(2)
        with pytest.raises(SingularNetworkError,
                           match=r"^group 0: I \+ Theta .*\(rcond=0\.00e\+00\)$"):
            solve_trials([ch], ObjectiveWeights(mu=(1.0,), nu=((1.0,),)), topo,
                         GroupAssignment.single(0, topo), PARAMS.z0, fw=None)


class TestProjection:
    def test_synthesize_then_project_roundtrip(self):
        # plan -> scatter -> retrieve -> plan is exact for every architecture
        rng = np.random.default_rng(21)
        f_star = 7.4e9
        cb = build_codebook(f_star, 4, SELF_RANGE, INTER_RANGE, PARAMS)
        for topo in (RisTopology.fully_connected(4), RisTopology.group_connected(8, 2),
                     RisTopology.single_connected(4)):
            c = np.zeros((topo.d, topo.d))
            c[np.diag_indices(topo.d)] = rng.choice(cb.self_caps, size=topo.d)
            iu, ju = np.triu_indices(topo.d_bar, 1)
            for k in range(topo.g):
                block = c[group_slice(topo, k), group_slice(topo, k)]
                block[iu, ju] = block[ju, iu] = rng.choice(cb.inter_caps, size=iu.size)
            theta = scattering_from_capacitances(plan_from_matrix(c, topo), f_star, PARAMS)
            recovered = plan_from_theta(theta, topo, cb)
            assert np.array_equal(plan_matrix(recovered), c), topo

    def test_scalar_roundtrip(self):
        cb = build_codebook(8e9, 5, SELF_RANGE, INTER_RANGE, PARAMS)
        for topo in (RisTopology.single_connected(1), RisTopology.fully_connected(1)):
            c = np.array([[cb.self_caps[13]]])
            theta = scattering_from_capacitances(plan_from_matrix(c, topo), 8e9, PARAMS)
            recovered = plan_from_theta(theta, topo, cb)
            assert np.array_equal(plan_matrix(recovered), c)

    @pytest.mark.parametrize("topo", [RisTopology.fully_connected(1),
                                      RisTopology.single_connected(1),
                                      RisTopology.single_connected(8)],
                             ids=["fully-connected", "single-connected",
                                  "single-connected-8"])
    @pytest.mark.parametrize("direct", [False, True], ids=["blocked", "direct"])
    def test_one_element_plans_follow_scalar_map(self, topo, direct):
        # reference: the admittance (1 - theta) / (z0 (1 + theta)) of each
        # element, zero (an open circuit) at theta = 1
        cb = build_codebook(7.4e9, 6, SELF_RANGE, INTER_RANGE, PARAMS)
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        fw = 200 if direct else None
        for t in range(20):
            ch = random_channels(np.random.default_rng(7000 + t), topo.d, 3, (1,),
                                 direct=direct)
            state = solve_one(ch, weights, topo, fw=fw)
            theta = state.thetas[0]
            y = (1.0 - theta) / (PARAMS.z0 * (1.0 + theta))
            expected = exhaustive_snap(y, cb.self_z, cb.self_caps)
            assert np.array_equal(state.plan({0: cb}).self_c.ravel(), expected)
            if topo.d == 1:
                # blocked links leave a unit coefficient: an open circuit
                assert (theta[0] == 1.0) != direct

    def test_refinement_reduces_quantization_error(self):
        rng = np.random.default_rng(22)
        ch = random_channels(rng, 6, 3, (1,))
        state = solve_one(ch, ObjectiveWeights(mu=(1.0,), nu=((1.0,),)))
        errors = {}
        for bits in (2, 12):
            cb = build_codebook(7.4e9, bits, SELF_RANGE, INTER_RANGE, PARAMS)
            errors[bits, "self"] = np.abs(
                state.self_y[0][:, None] - 1 / cb.self_z[None, :]).min(axis=1)
            errors[bits, "inter"] = np.abs(
                state.inter_y[0][:, None] - 1 / cb.inter_z[None, :]).min(axis=1)
        for kind in ("self", "inter"):
            assert np.all(errors[12, kind] <= errors[2, kind] + 1e-15)
            assert errors[12, kind].sum() < errors[2, kind].sum()

    @given(st.booleans(), st.integers(1, 8), st.floats(1e9, 16e9),
           st.sampled_from(["self", "inter"]),
           st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                    max_size=40),
           st.lists(st.integers(0, 255), max_size=20), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_arc_search_equals_exhaustive_argmin(self, lossy, bits, f, kind, plane,
                                                 picks, seed):
        params = PARAMS if lossy else LOSSLESS
        cb = build_codebook(f, bits, SELF_RANGE, INTER_RANGE, params)
        codewords, caps = getattr(cb, f"{kind}_z"), getattr(cb, f"{kind}_caps")
        y = 1 / codewords
        n = y.size
        # admittance targets: anywhere in the plane, on a codeword, and
        # halfway between neighbouring codewords (equidistant from both);
        # about one in ten zeroed (open branches)
        targets = np.concatenate([np.array(plane, dtype=complex),
                                  y[[i % n for i in picks]],
                                  (y[1:] + y[:-1]) / 2])
        rng = np.random.default_rng(seed)
        targets[rng.random(targets.size) <= 0.1] = 0.0
        with np.errstate(all="ignore"):
            got = _snap(targets, getattr(cb, f"{kind}_arc"), caps)
            expected = exhaustive_snap(targets, codewords, caps)
        assert np.array_equal(got, expected)

    def test_tie_breaks_to_smallest_capacitance(self):
        # two codewords whose admittances are exactly equidistant from the target
        cb = Codebook(self_caps=np.array([1e-12, 2e-12]),
                      self_z=np.array([2.0 + 0j, 4.0 + 0j]),   # admittances 0.5, 0.25
                      inter_caps=np.array([1e-12, 2e-12]),
                      inter_z=np.array([2.0 + 0j, 4.0 + 0j]))
        target = np.array([[0.375 + 0j]])  # equidistant between the two admittances
        self_c, _ = snap_to_codebook(target, np.zeros((1, 0), dtype=complex), cb)
        assert self_c[0, 0] == 1e-12

    def test_infinite_branch_takes_largest_impedance_codeword(self):
        # an open branch has zero admittance
        cb = build_codebook(7.4e9, 4, SELF_RANGE, INTER_RANGE, PARAMS)
        self_c, _ = snap_to_codebook(np.zeros((1, 1), dtype=complex),
                                     np.zeros((1, 0), dtype=complex), cb)
        assert self_c[0, 0] == cb.self_caps[np.argmax(np.abs(cb.self_z))]

    def test_empty_targets_skip_the_search(self, monkeypatch):
        # a single-connected surface has no inter-element branches: its
        # (g, 0) inter targets return no indices without an arc search
        cb = build_codebook(7.4e9, 4, SELF_RANGE, INTER_RANGE, PARAMS)

        def no_search(*args):
            raise AssertionError("arc search on empty targets")

        monkeypatch.setattr(circuit, "_arc_key", no_search)
        picks = cb.inter_arc.nearest(np.zeros(0, dtype=complex))
        assert picks.shape == (0,) and picks.dtype == np.intp
        assert cb.inter_caps[picks].shape == (0,)
        monkeypatch.undo()
        self_y = np.full((3, 1), 1e-3 + 2e-3j)
        self_c, inter_c = snap_to_codebook(self_y, np.zeros((3, 0), dtype=complex), cb)
        expected = exhaustive_snap(self_y[:, 0], cb.self_z, cb.self_caps)
        assert np.array_equal(self_c, expected[:, None]) and inter_c.shape == (3, 0)


class TestConfigure:
    def test_fc_produces_valid_scattering_everywhere(self):
        rng = np.random.default_rng(23)
        ch = random_channels(rng, 6, 3, (1,), scales=(0.1,))
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        cb = build_codebook(7.4e9, 6, SELF_RANGE, INTER_RANGE, PARAMS)
        plan = solve_one(ch, weights).plan({0: cb})
        for f in (4e9, 7.4e9, 12e9):
            theta = scattering_from_capacitances(plan, f, PARAMS)
            assert np.abs(theta - theta.T).max() < 1e-10
            assert np.linalg.eigvalsh(theta @ theta.conj().T).max() <= 1 + 1e-8

    def test_fc_beats_random_plan(self):
        rng = np.random.default_rng(24)
        f_star = 7.4e9
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        cb = build_codebook(f_star, 6, SELF_RANGE, INTER_RANGE, PARAMS)
        topo = RisTopology.fully_connected(16)
        configured_p, random_p = [], []
        for t in range(100):
            ch = random_channels(np.random.default_rng(1000 + t), 16, 4, (1,))
            theta = scattering_from_capacitances(solve_one(ch, weights).plan({0: cb}),
                                                 f_star, PARAMS)
            configured_p.append(objective_direct(ch, weights, theta))
            plan = random_plan(topo, SELF_RANGE, INTER_RANGE,
                               np.random.default_rng(2000 + t))
            theta_r = scattering_from_capacitances(plan, f_star, PARAMS)
            random_p.append(objective_direct(ch, weights, theta_r))
        assert np.median(configured_p) > np.median(random_p)

    def test_fc_quantization_loss_shrinks_with_bits(self):
        rng = np.random.default_rng(25)
        f_star = 7.4e9
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        losses = {}
        for bits in (2, 6, 10):
            cb = build_codebook(f_star, bits, SELF_RANGE, INTER_RANGE, PARAMS)
            ratios = []
            for t in range(10):
                ch = random_channels(np.random.default_rng(3000 + t), 12, 3, (1,))
                state = solve_one(ch, weights)
                theta = scattering_from_capacitances(state.plan({0: cb}), f_star, PARAMS)
                achieved = objective_direct(ch, weights, theta)
                relaxed = relaxed_objective(*reduced_stack(ch, weights), state.thetas[0])
                ratios.append(achieved / relaxed)
            losses[bits] = float(np.mean(ratios))
        assert losses[6] > losses[2]
        assert losses[10] >= losses[6] - 0.02

    def test_gc_standard_two_frequency_setup(self):
        rng = np.random.default_rng(26)
        ch = random_channels(rng, 8, 3, (1, 1))
        weights = uniform_weights((1, 1))
        topo = RisTopology.group_connected(8, 2)
        assignment = GroupAssignment.even_split((0, 1), topo)
        codebooks = {b: build_codebook(f, 6, SELF_RANGE, INTER_RANGE, PARAMS)
                     for b, f in ((0, 7.4e9), (1, 8.0e9))}
        plan = solve_one(ch, weights, topo, assignment).plan(codebooks)
        theta = scattering_from_capacitances(plan, 7.4e9, PARAMS)
        assert np.all(theta[:4, 4:] == 0)
        assert np.abs(theta - theta.T).max() < 1e-10
        assert np.linalg.eigvalsh(theta @ theta.conj().T).max() <= 1 + 1e-8

    def test_single_connected_split_beats_random(self):
        rng = np.random.default_rng(27)
        d = 10
        weights = uniform_weights((1, 1))
        topo = RisTopology.single_connected(d)
        assignment = GroupAssignment.even_split((0, 1), topo)
        codebooks = {b: build_codebook(f, 6, SELF_RANGE, INTER_RANGE, PARAMS)
                     for b, f in ((0, 7.4e9), (1, 8.0e9))}
        gains, baselines = [], []
        for t in range(60):
            ch = random_channels(np.random.default_rng(4000 + t), d, 3, (1, 1))
            plan = solve_one(ch, weights, topo, assignment).plan(codebooks)
            theta = scattering_from_capacitances(plan, 7.4e9, PARAMS)
            assert np.count_nonzero(theta - np.diag(np.diag(theta))) == 0
            row = ch.f[0][0].conj() @ theta @ ch.g[0]
            gains.append(np.linalg.norm(row) ** 2)
            plan = random_plan(topo, SELF_RANGE, INTER_RANGE,
                               np.random.default_rng(5000 + t))
            theta_r = scattering_from_capacitances(plan, 7.4e9, PARAMS)
            baselines.append(np.linalg.norm(ch.f[0][0].conj() @ theta_r @ ch.g[0]) ** 2)
        assert np.median(gains) > np.median(baselines)

    def test_weight_monotonicity(self):
        # raising one base station's weight never lowers that station's own
        # (unweighted) term at the new optimum
        rng = np.random.default_rng(28)
        for _ in range(10):
            ch = random_channels(rng, 4, 2, (1, 1))
            def bs0_term(mu0):
                weights = ObjectiveWeights(mu=(mu0, 1.0), nu=((1.0,), (1.0,)))
                theta = solve_one(ch, weights).thetas[0]
                unweighted = ObjectiveWeights(mu=(1.0, 0.0), nu=((1.0,), (1.0,)))
                return objective_direct(ch, unweighted, unvech(theta, 4))
            assert bs0_term(1.0) >= bs0_term(0.2) - 1e-12

    def test_quantization_consistency_on_realizable_targets(self):
        # projecting the reflection of a plan with arbitrary in-range
        # capacitances recovers its objective as the codebooks refine
        rng = np.random.default_rng(29)
        f_star = 7.4e9
        topo = RisTopology.fully_connected(5)
        ch = random_channels(np.random.default_rng(6000), 5, 3, (1,))
        weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
        plan = random_plan(topo, SELF_RANGE, INTER_RANGE, rng)
        theta_target = scattering_from_capacitances(plan, f_star, PARAMS)
        exact = objective_direct(ch, weights, theta_target)
        gaps = []
        for bits in (3, 7, 11):
            cb = build_codebook(f_star, bits, SELF_RANGE, INTER_RANGE, PARAMS)
            theta_hat = scattering_from_capacitances(
                plan_from_theta(theta_target, topo, cb), f_star, PARAMS)
            gaps.append(abs(objective_direct(ch, weights, theta_hat) - exact) / exact)
        assert gaps[2] < gaps[0]
        assert gaps[2] < 1e-2
