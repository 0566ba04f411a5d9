import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdris.circuit import (CONDITION_LIMIT, CapacitancePlan, CircuitParams, Codebook,
                           RisTopology, build_codebook, inter_impedance,
                           scattering_from_capacitances, self_impedance)
from bdris import circuit
from bdris.circuit import _network_matrices
from bdris.config import DEFAULT_CONFIG, circuit_params
from bdris.errors import SingularNetworkError
from bdris.experiments import solve_trials
from bdris.optimizer import GroupAssignment, ObjectiveWeights, relaxed_block_branches
from reference_model import (LOSSLESS, admittance_matrix, capacitance_plan, crandn,
                             group_slice, impedance_from_scattering, plan_capacitances,
                             plan_from_matrix, plan_matrix, random_channels, random_plan,
                             scattering_from_impedance)

PARAMS = circuit_params(DEFAULT_CONFIG)


def branch_impedance_oracle(c, f, r, l0, l):
    """Term-by-term parallel combination: 1 / (1/Z_L0 + 1/(Z_L + Z_C + R))."""
    w = 2 * np.pi * f
    z_l0 = 1j * w * l0
    z_l = 1j * w * l
    z_c = 1 / (1j * w * c)
    return 1 / (1 / z_l0 + 1 / (z_l + z_c + r))


class TestCircuitParams:
    def test_defaults(self):
        assert PARAMS.r == 1.0 and PARAMS.l0 == 2.5e-9 and PARAMS.z0 == 50.0

    @pytest.mark.parametrize("field,value", [("l0", 0.0), ("z0", -1.0), ("r", -0.1)])
    def test_invalid_values(self, field, value):
        kwargs = dict(r=1.0, l0=2.5e-9, l=0.7e-9, r_tilde=1.0, l0_tilde=12.5e-9,
                      l_tilde=0.2e-9, z0=50.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            CircuitParams(**kwargs)


class TestRisTopology:
    def test_architectures(self):
        assert RisTopology.fully_connected(8) == RisTopology(8, 1)
        assert RisTopology.group_connected(8, 2).d_bar == 4
        assert RisTopology.single_connected(8) == RisTopology(8, 8)
        assert RisTopology(8, 8).d_bar == 1

    def test_group_must_divide(self):
        with pytest.raises(ValueError):
            RisTopology(10, 3)

    def test_group_slice(self):
        # group k holds elements k d_bar .. (k + 1) d_bar - 1: its block of
        # Theta is the scattering of its own branches alone
        topo = RisTopology(6, 2)
        assert group_slice(topo, 1) == slice(3, 6)
        plan = random_plan(topo, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12),
                           np.random.default_rng(8))
        theta = scattering_from_capacitances(plan, 7e9, PARAMS)
        self_c, inter_c = plan_capacitances(plan)
        for k in range(topo.g):
            alone = capacitance_plan(self_c[k:k + 1], inter_c[k:k + 1])
            block = theta[group_slice(topo, k), group_slice(topo, k)]
            assert np.abs(block - scattering_from_capacitances(alone, 7e9, PARAMS)).max() < 1e-14


class TestBranchImpedancesFormulas:
    def test_lossless_self_is_reactive(self):
        z = self_impedance(0.4e-12, 6e9, LOSSLESS)
        assert abs(z.real) < 1e-9 * abs(z)

    def test_self_against_term_by_term_oracle(self):
        z = self_impedance(0.5e-12, 7e9, PARAMS)
        expected = branch_impedance_oracle(0.5e-12, 7e9, PARAMS.r, PARAMS.l0, PARAMS.l)
        assert abs(z - expected) < 1e-9 * abs(expected)

    def test_self_large_capacitance_limit(self):
        # capacitor becomes a short: parallel combination of l0 with (l + r)
        f = 7e9
        w = 2j * np.pi * f
        limit = (w * PARAMS.l0) * (w * PARAMS.l + PARAMS.r) / (
            w * (PARAMS.l0 + PARAMS.l) + PARAMS.r)
        z = self_impedance(1e-6, f, PARAMS)
        assert abs(z - limit) < 1e-3 * abs(limit)

    def test_inter_lossless_is_reactive(self):
        z = inter_impedance(0.2e-12, 6e9, LOSSLESS)
        assert abs(z.real) < 1e-9 * abs(z)

    def test_inter_against_term_by_term_oracle(self):
        z = inter_impedance(0.2e-12, 7e9, PARAMS)
        expected = branch_impedance_oracle(0.2e-12, 7e9, PARAMS.r_tilde,
                                           PARAMS.l0_tilde, PARAMS.l_tilde)
        assert abs(z - expected) < 1e-9 * abs(expected)

    def test_same_parameters_same_formula(self):
        p = CircuitParams(r=1.0, l0=2.5e-9, l=0.7e-9, r_tilde=1.0,
                          l0_tilde=2.5e-9, l_tilde=0.7e-9, z0=50.0)
        assert self_impedance(0.3e-12, 5e9, p) == inter_impedance(0.3e-12, 5e9, p)

    def test_vectorized_over_capacitance(self):
        caps = np.array([0.1e-12, 0.5e-12, 2e-12])
        z = self_impedance(caps, 7e9, PARAMS)
        assert z.shape == (3,)
        assert z[1] == self_impedance(0.5e-12, 7e9, PARAMS)

    @pytest.mark.parametrize("c,f", [(0.0, 7e9), (-1e-12, 7e9), (1e-12, 0.0)])
    def test_invalid_arguments(self, c, f):
        with pytest.raises(ValueError):
            self_impedance(c, f, PARAMS)


class TestAdmittanceMatrix:
    def test_single_port(self):
        y = admittance_matrix(np.array([2.0 + 1j]))
        assert np.allclose(y, [[1 / (2.0 + 1j)]])

    def test_two_port_formula(self):
        z, zt = 3.0 - 2j, 5.0 + 1j
        inter = np.array([[0, zt], [zt, 0]], dtype=complex)
        y = admittance_matrix(np.array([z, z]), inter)
        expected = np.array([[1 / z + 1 / zt, -1 / zt], [-1 / zt, 1 / z + 1 / zt]])
        assert np.allclose(y, expected)

    def test_row_sums_recover_self_admittance(self):
        rng = np.random.default_rng(0)
        d = 5
        self_z = crandn(rng, d) + 2.0
        inter = crandn(rng, d, d)
        inter = inter + inter.T
        y = admittance_matrix(self_z, inter)
        assert np.allclose(y.sum(axis=1), 1 / self_z, atol=1e-12)

    def test_zero_branch_rejected(self):
        # the package forms Y only inside A = I + z0 Y, which refuses a branch
        # of zero impedance, self or inter-element: its admittance is undefined
        resonant = TestScatteringFromCapacitances.RESONANT
        inter = dataclasses.replace(resonant, r_tilde=0.0, l_tilde=resonant.l)
        assert inter_impedance(1e-12, 4e9, inter) == 0
        for params, plan in ((resonant, capacitance_plan([[1e-12, 0.5e-12]], [[0.2e-12]])),
                             (inter, capacitance_plan([[0.5e-12, 0.5e-12]], [[1e-12]]))):
            with pytest.raises(SingularNetworkError, match="zero branch impedance"):
                _network_matrices(plan, 4e9, params)


class TestScatteringConversions:
    """The reference conversions between impedance and reflection matrices."""

    def test_matched_load(self):
        z = 50.0 * np.eye(3, dtype=complex)
        assert np.abs(scattering_from_impedance(z, 50.0)).max() < 1e-14

    def test_short_circuit(self):
        theta = scattering_from_impedance(np.zeros((3, 3), dtype=complex), 50.0)
        assert np.allclose(theta, -np.eye(3))

    def test_reactive_network_is_unitary(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 5)) * 40
        z = 1j * (x + x.T)
        theta = scattering_from_impedance(z, 50.0)
        assert np.abs(theta @ theta.conj().T - np.eye(5)).max() < 1e-8

    def test_impedance_from_scattering_examples(self):
        assert np.allclose(impedance_from_scattering(np.zeros((2, 2)), 50.0),
                           50.0 * np.eye(2))
        assert np.abs(impedance_from_scattering(-np.eye(2), 50.0)).max() < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = crandn(rng, 4, 4)
            theta = a + a.T
            theta *= 0.9 / np.max(np.abs(np.linalg.eigvals(theta)))
            z = impedance_from_scattering(theta, 50.0)
            back = scattering_from_impedance(z, 50.0)
            assert np.abs(back - theta).max() < 1e-10

    @given(st.integers(2, 6), st.floats(0.0, 0.9), st.floats(1.0, 100.0),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_single_inverse_matches_two_step_solve(self, d, radius, z0, seed):
        # s is complex symmetric with spectral norm `radius`, so I + s and
        # I - s have condition at most 19 in the 2-norm
        a = crandn(np.random.default_rng(seed), d, d)
        s = a + a.T
        s *= radius / np.linalg.norm(s, 2)
        eye = np.eye(d)

        z = z0 * s
        expected = np.linalg.solve(z + z0 * eye, z - z0 * eye)
        theta = scattering_from_impedance(z, z0)
        assert np.abs(theta - expected).max() <= 1e-10 * np.abs(expected).max()

        expected = z0 * np.linalg.solve(eye - s, eye + s)
        z = impedance_from_scattering(s, z0)
        assert np.abs(z - expected).max() <= 1e-10 * np.abs(expected).max()


def reflection(y: np.ndarray, z0: float) -> np.ndarray:
    """Theta = 2 (I + z0 Y)^-1 - I of one admittance matrix."""
    eye = np.eye(y.shape[0])
    theta = 2.0 * np.linalg.inv(eye + z0 * y) - eye
    return 0.5 * (theta + theta.T)


class TestRetrieveBranchImpedances:
    """Branch retrieval from a reflection block; it returns the branch
    admittances, the reciprocals of the branch impedances."""

    def test_single_port(self):
        theta = scattering_from_impedance(np.array([[7.0 - 3j]]), 50.0)
        self_y, inter_y = relaxed_block_branches(theta[None], 50.0)
        assert self_y[0, 0] == pytest.approx(1 / (7.0 - 3j))
        assert inter_y.shape == (1, 0)

    def test_construct_then_invert(self):
        rng = np.random.default_rng(3)
        d = 3
        self_z = crandn(rng, d) * 20 + 40
        inter = crandn(rng, d, d) * 100
        inter = inter + inter.T
        theta = reflection(admittance_matrix(self_z, inter), 50.0)
        self_y, inter_y = relaxed_block_branches(theta[None], 50.0)
        assert np.abs(1 / self_y[0] - self_z).max() < 1e-9 * np.abs(self_z).max()
        iu, ju = np.triu_indices(d, 1)
        assert (np.abs(1 / inter_y[0] - inter[iu, ju]).max()
                < 1e-9 * np.abs(inter[iu, ju]).max())

    def test_roundtrip_through_admittance(self):
        rng = np.random.default_rng(4)
        a = crandn(rng, 4, 4)
        s = a + a.T
        theta = 0.8 * s / np.linalg.norm(s, 2)
        self_y, inter_y = relaxed_block_branches(theta[None].copy(), 50.0)  # overwritten
        iu, ju = np.triu_indices(4, 1)
        inter_z = np.zeros((4, 4), dtype=complex)
        inter_z[iu, ju] = inter_z[ju, iu] = 1 / inter_y[0]
        rebuilt = reflection(admittance_matrix(1 / self_y[0], inter_z), 50.0)
        assert np.abs(rebuilt - theta).max() < 1e-8 * np.abs(theta).max()

    def test_diagonal_impedance_flags_inter_infinite(self):
        # decoupled ports: every inter-element admittance is exactly zero
        z = np.diag([30.0 + 5j, 40.0 - 2j, 25.0 + 0j])
        theta = scattering_from_impedance(z, 50.0)
        self_y, inter_y = relaxed_block_branches(theta[None], 50.0)
        assert not inter_y.any()
        assert np.allclose(1 / self_y[0], np.diag(z))

    def test_singular_rejected(self):
        # eigenvalue -1 along the all-ones vector: a short circuit
        with pytest.raises(SingularNetworkError):
            relaxed_block_branches(-np.ones((1, 3, 3), dtype=complex) / 3, 50.0)

    @pytest.mark.parametrize("small,rejected", [(1e-13, True), (1e-11, False),
                                                (np.nan, True)])
    def test_guard_threshold(self, small, rejected):
        # I + Theta = diag(1, small): 1-norm condition 1/small, on either
        # side of CONDITION_LIMIT; a NaN entry gives rcond NaN, refused too
        assert 1e-13 < 1.0 / CONDITION_LIMIT < 1e-11
        theta = np.diag([0.0, small - 1.0]).astype(complex)[None]
        if rejected:
            with pytest.raises(SingularNetworkError, match="rcond="):
                relaxed_block_branches(theta, 50.0)
        else:
            self_y, _ = relaxed_block_branches(theta.copy(), 50.0)  # overwritten
            expected = (2.0 / (1.0 + np.diag(theta[0])) - 1.0) / 50.0
            assert np.allclose(self_y[0], expected, rtol=1e-12, atol=0)


class TestCodebook:
    def test_single_bit_endpoints(self):
        cb = build_codebook(7e9, 1, (1e-12, 2e-12), (0.1e-12, 0.2e-12), PARAMS)
        assert np.array_equal(cb.self_caps, [1e-12, 2e-12])
        assert np.array_equal(cb.inter_caps, [0.1e-12, 0.2e-12])

    def test_six_bits_gives_64_entries(self):
        cb = build_codebook(7e9, 6, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12), PARAMS)
        assert cb.self_caps.size == 64
        assert cb.inter_z.size == 64

    def test_impedances_rederivable(self):
        cb = build_codebook(9e9, 4, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12), PARAMS)
        assert np.all(np.diff(cb.self_caps) > 0)
        again = self_impedance(cb.self_caps, 9e9, PARAMS)
        assert np.abs(again - cb.self_z).max() < 1e-12 * np.abs(cb.self_z).max()
        again = inter_impedance(cb.inter_caps, 9e9, PARAMS)
        assert np.abs(again - cb.inter_z).max() < 1e-12 * np.abs(cb.inter_z).max()

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            build_codebook(7e9, 0, (1e-12, 2e-12), (1e-12, 2e-12), PARAMS)
        with pytest.raises(ValueError):
            build_codebook(7e9, 2, (2e-12, 1e-12), (1e-12, 2e-12), PARAMS)

    @staticmethod
    def rebuilt(cb, **fields):
        kept = {name: getattr(cb, name) for name in
                ("self_caps", "self_z", "inter_caps", "inter_z")}
        return Codebook(**{**kept, **fields})

    def test_capacitances_must_strictly_increase(self):
        cb = build_codebook(7e9, 3, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12), PARAMS)
        with pytest.raises(ValueError, match="strictly increasing"):
            self.rebuilt(cb, self_caps=cb.self_caps[::-1])
        repeated = cb.inter_caps.copy()
        repeated[4] = repeated[3]
        with pytest.raises(ValueError, match="strictly increasing"):
            self.rebuilt(cb, inter_caps=repeated)

    def test_lengths_must_match(self):
        cb = build_codebook(7e9, 3, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12), PARAMS)
        with pytest.raises(ValueError, match="differ in length"):
            self.rebuilt(cb, self_z=cb.self_z[:-1])
        with pytest.raises(ValueError, match="differ in length"):
            self.rebuilt(cb, inter_caps=cb.inter_caps[:-1])

    @pytest.mark.parametrize("r", [1.0, 0.0], ids=["circle", "line"])
    def test_codewords_must_share_one_curve(self, r):
        params = CircuitParams(r=r, l0=2.5e-9, l=0.7e-9, r_tilde=r, l0_tilde=12.5e-9,
                               l_tilde=0.2e-9, z0=50.0)
        cb = build_codebook(7e9, 4, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12), params)
        assert (cb.self_arc.axis == 0) == (r > 0)
        for kind in ("self_z", "inter_z"):
            y = 1 / getattr(cb, kind)
            for shift, accepted in ((1e-13, True), (1e-6, False)):
                moved = y.copy()
                moved[5] += shift * np.abs(y).max() * (1 + 1j)
                if accepted:
                    self.rebuilt(cb, **{kind: 1 / moved})
                else:
                    with pytest.raises(ValueError, match="one circle or line"):
                        self.rebuilt(cb, **{kind: 1 / moved})


class TestScatteringFromCapacitances:
    def test_single_connected_diagonal(self):
        topo = RisTopology.single_connected(2)
        c = np.diag([0.4e-12, 1.1e-12])
        theta = scattering_from_capacitances(plan_from_matrix(c, topo), 7e9, PARAMS)
        assert np.allclose(theta, np.diag(np.diag(theta)))
        for p in range(2):
            z = self_impedance(c[p, p], 7e9, PARAMS)
            assert theta[p, p] == pytest.approx((z - 50.0) / (z + 50.0))

    def test_phase_coverage_two_elements(self):
        # sweeping the three capacitances at one frequency reaches almost the
        # entire phase range of every scattering coefficient
        c_self = np.linspace(0.1e-12, 2e-12, 14)
        c_int = np.linspace(0.001e-12, 0.6e-12, 14)
        angles = {key: [] for key in ((0, 0), (1, 1), (0, 1))}
        for c1 in c_self:
            for c2 in c_self:
                for ci in c_int:
                    plan = capacitance_plan([[c1, c2]], [[ci]])
                    theta = scattering_from_capacitances(plan, 7e9, PARAMS)
                    for key in angles:
                        angles[key].append(np.angle(theta[key]))
        for key, values in angles.items():
            hit = np.histogram(values, bins=24, range=(-np.pi, np.pi))[0] > 0
            assert hit.sum() >= 21, f"coefficient {key} covers too little phase"

    def test_lossless_blocks_unitary(self):
        rng = np.random.default_rng(5)
        for topo in (RisTopology.fully_connected(6), RisTopology.group_connected(6, 3),
                     RisTopology.single_connected(6)):
            plan = random_plan(topo, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12), rng)
            theta = scattering_from_capacitances(plan, 7e9, LOSSLESS)
            for g in range(topo.g):
                sl = group_slice(topo, g)
                block = theta[sl, sl]
                eye = np.eye(topo.d_bar)
                assert np.linalg.norm(block @ block.conj().T - eye) < 1e-8

    def test_passivity_and_reciprocity_across_band(self):
        rng = np.random.default_rng(6)
        topo = RisTopology.group_connected(8, 2)
        for f in np.linspace(1e9, 20e9, 7):
            plan = random_plan(topo, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12), rng)
            theta = scattering_from_capacitances(plan, f, PARAMS)
            assert np.abs(theta - theta.T).max() < 1e-10
            eigs = np.linalg.eigvalsh(theta @ theta.conj().T)
            assert eigs.max() <= 1 + 1e-8

    def test_block_structure(self):
        rng = np.random.default_rng(7)
        topo = RisTopology.group_connected(6, 2)
        plan = random_plan(topo, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12), rng)
        theta = scattering_from_capacitances(plan, 7e9, PARAMS)
        assert np.all(theta[:3, 3:] == 0)
        assert np.all(theta[3:, :3] == 0)

    def test_rapid_phase_change_with_frequency(self):
        # with the inter-element capacitance fixed, at least one capacitance
        # pair sees the first reflection coefficient move by more than 90
        # degrees between 4 and 6 GHz
        best = 0.0
        for c1 in np.linspace(0.1e-12, 2e-12, 12):
            for c2 in np.linspace(0.1e-12, 2e-12, 12):
                plan = capacitance_plan([[c1, c2]], [[0.2e-12]])
                t4 = scattering_from_capacitances(plan, 4e9, PARAMS)[0, 0]
                t6 = scattering_from_capacitances(plan, 6e9, PARAMS)[0, 0]
                best = max(best, abs(np.angle(t6 / t4)))
        assert np.degrees(best) > 90.0

    def test_plan_validation(self):
        # the layout holds one triangle per group, so a plan cannot be
        # asymmetric
        plan = capacitance_plan([[1e-12, 1e-12]], [[2e-12]])
        assert plan.self_index.shape == (1, 2) and plan.inter_index.shape == (1, 1)
        listed = CapacitancePlan([1e-12], [[0, 0]], [2e-12], [[0]])  # one shared codeword
        assert np.array_equal(scattering_from_capacitances(listed, 7e9, PARAMS),
                              scattering_from_capacitances(plan, 7e9, PARAMS))
        for self_c, inter_c in (([[1e-12, 1e-12]], [[2e-12, 3e-12]]),
                                ([[1e-12, 1e-12]], [[2e-12], [3e-12]]),
                                ([1e-12, 1e-12], [2e-12]), (np.zeros((0, 3)), np.zeros((0, 3)))):
            with pytest.raises(ValueError, match="capacitance shapes"):
                capacitance_plan(self_c, inter_c)

    def test_open_self_branches_give_unitary_scattering(self):
        # every self branch sits at its lossless parallel resonance (open),
        # so each group's admittance matrix is a singular coupling pattern;
        # I + z0*Y stays regular, and the lossless blocks come out unitary
        topo = RisTopology.group_connected(4, 2)
        lossless = CircuitParams(r=0.0, l0=1e-9, l=0.0, r_tilde=0.0,
                                 l0_tilde=1e-9, l_tilde=0.0, z0=50.0)
        c_self = 0.5e-12
        f = 1.0 / (2 * np.pi * np.sqrt(1e-9 * c_self))
        c = np.full((4, 4), 0.2e-12)
        c[np.diag_indices(4)] = c_self
        theta = scattering_from_capacitances(plan_from_matrix(c, topo), f, lossless)
        assert np.all(theta[:2, 2:] == 0) and np.all(theta[2:, :2] == 0)
        assert np.abs(theta - theta.T).max() < 1e-12
        assert np.linalg.norm(theta @ theta.conj().T - np.eye(4)) < 1e-12

    @staticmethod
    def plan_with_group_1_branch(kind):
        # group 0 is regular; one branch of group 1 has no finite admittance
        c = np.full((4, 4), 0.2e-12)
        c[np.diag_indices(4)] = 0.5e-12
        if kind == "zero":
            c[3, 3] = 1e-12
        else:
            c[2, 3] = c[3, 2] = np.inf  # the inter branch comes out NaN
        return plan_from_matrix(c, RisTopology.group_connected(4, 2))

    # r = 0 and an inductance one rounding step off 1 / (w^2 c) put the
    # series path of a 1 pF self branch at 4 GHz exactly at resonance
    RESONANT = CircuitParams(r=0.0, l0=1e-9, l=1.5831434944115275e-09, r_tilde=1.0,
                             l0_tilde=12.5e-9, l_tilde=0.2e-9, z0=50.0)

    def test_errors_carry_group_index(self):
        assert self_impedance(1e-12, 4e9, self.RESONANT) == 0
        plan = self.plan_with_group_1_branch("zero")
        with pytest.raises(SingularNetworkError, match="^group 1: "):
            scattering_from_capacitances(plan, 4e9, self.RESONANT)

    def test_non_finite_branch_names_its_group(self):
        plan = self.plan_with_group_1_branch("non-finite")
        with np.errstate(invalid="ignore"):
            with pytest.raises(SingularNetworkError, match="^group 1: .*rcond=nan"):
                scattering_from_capacitances(plan, 4e9, self.RESONANT)

    @given(st.sampled_from(["fc", "gc", "sc"]), st.integers(1, 4),
           st.booleans(), st.floats(1e9, 16e9), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_two_inverse_reference(self, arch, d_bar, lossy, f, seed):
        # the reference forms Z = Y^-1 per group, then (Z + z0 I)^-1 (Z - z0 I)
        params = PARAMS if lossy else LOSSLESS
        g = {"fc": 1, "gc": 2, "sc": d_bar}[arch]
        if arch == "sc":
            d_bar = 1
        topo = RisTopology(g * d_bar, g)
        rng = np.random.default_rng(seed)
        plan = random_plan(topo, (0.1e-12, 2e-12), (0.001e-12, 0.6e-12), rng)
        expected = np.zeros((topo.d, topo.d), dtype=complex)
        eye = np.eye(d_bar)
        for k in range(g):
            sl = group_slice(topo, k)
            block = plan_matrix(plan)[sl, sl]
            inter_z = inter_impedance(np.where(eye, 1.0, block), f, params)
            z = np.linalg.inv(admittance_matrix(
                self_impedance(np.diag(block), f, params), inter_z))
            expected[sl, sl] = np.linalg.solve(z + params.z0 * eye, z - params.z0 * eye)
        theta = scattering_from_capacitances(plan, f, params)
        assert np.abs(theta - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("g", [1, 3, 6], ids=["fc", "gc", "sc"])
    def test_random_plan_keeps_its_draw_sequence(self, g):
        # the draws of a D x D plan: all D self values, then one
        # (d_bar, d_bar) block per group whose strict upper triangle is
        # mirrored; baselines (criteria 4 and 7, the quick demo's inline
        # draw) rest on these values
        topo, ranges = RisTopology(6, g), ((0.1e-12, 2e-12), (0.001e-12, 0.6e-12))
        rng = np.random.default_rng(41)
        c = np.zeros((6, 6))
        c[np.diag_indices(6)] = rng.uniform(*ranges[0], size=6)
        for k in range(g):
            block = np.triu(rng.uniform(*ranges[1], size=(topo.d_bar, topo.d_bar)), 1)
            c[group_slice(topo, k), group_slice(topo, k)] += block + block.T
        drawn = np.random.default_rng(41)
        plan = random_plan(topo, *ranges, drawn)
        assert plan.self_index.shape == (g, topo.d_bar)
        assert np.array_equal(plan_matrix(plan), c)
        assert drawn.random() == rng.random()  # no draw more or fewer


class TestIndexPlans:
    """A snapped plan holds codeword indices into its codebooks' capacitance
    tables, and scattering evaluates each branch circuit once per table entry."""

    BITS = 6
    SELF_RANGE, INTER_RANGE = (0.1e-12, 2e-12), (0.001e-12, 0.6e-12)

    def codebook(self, f):
        return build_codebook(f, self.BITS, self.SELF_RANGE, self.INTER_RANGE, PARAMS)

    def snapped_plan(self, arch, seed=0):
        """A solved and snapped plan of 8 elements against a 7.4 GHz codebook; the
        group-connected one splits its groups over two base stations, the
        second snapped onto an 8 GHz codebook."""
        topo = {"fc": RisTopology.fully_connected(8), "gc": RisTopology.group_connected(8, 2),
                "sc": RisTopology.single_connected(8)}[arch]
        bss = (0, 1) if arch == "gc" else (0,)
        channels = random_channels(np.random.default_rng(seed), 8, 3, (1, 1))
        weights = ObjectiveWeights(mu=(1.0, 1.0), nu=((1.0,), (1.0,)))
        state = solve_trials([channels], weights, topo, GroupAssignment.even_split(bss, topo),
                             PARAMS.z0)[0]
        return state.plan({0: self.codebook(7.4e9), 1: self.codebook(8e9)}), len(bss)

    @pytest.mark.parametrize("f", [7.4e9, 6.9e9, 12e9], ids=["7.4GHz", "6.9GHz", "12GHz"])
    @pytest.mark.parametrize("arch", ["fc", "gc", "sc"])
    def test_scatters_bitwise_like_its_capacitances(self, arch, f):
        # the same plan with every branch capacitance its own table entry
        plan, books = self.snapped_plan(arch)
        assert plan.self_caps.size == plan.inter_caps.size == books * 2 ** self.BITS
        alike = capacitance_plan(*plan_capacitances(plan))
        left = crandn(np.random.default_rng(1), 8, 2)
        for rows in (None, left):
            assert np.array_equal(scattering_from_capacitances(plan, f, PARAMS, rows),
                                  scattering_from_capacitances(alike, f, PARAMS, rows))

    @pytest.mark.parametrize("arch", ["fc", "gc", "sc"])
    def test_branch_circuit_evaluated_once_per_codeword(self, monkeypatch, arch):
        plan, books = self.snapped_plan(arch)
        branch, sizes = circuit._resonant_branch, []

        def spy(c, *args):
            sizes.append(np.size(c))
            return branch(c, *args)

        monkeypatch.setattr(circuit, "_resonant_branch", spy)
        for f in (6.9e9, 7.4e9, 12e9):
            sizes.clear()
            scattering_from_capacitances(plan, f, PARAMS)
            assert sizes and max(sizes) <= books * 2 ** self.BITS

    def test_unused_zero_impedance_entry_is_no_error(self):
        # a table entry at exact series resonance (zero impedance) that no
        # branch indexes neither raises nor warns; one a branch indexes raises
        resonant = TestScatteringFromCapacitances.RESONANT
        table = np.array([1e-12, 0.5e-12])  # 1 pF resonates at 4 GHz
        plan = CapacitancePlan(table, np.array([[1, 1]]), np.array([0.2e-12]), np.array([[0]]))
        theta = scattering_from_capacitances(plan, 4e9, resonant)
        assert np.array_equal(theta, scattering_from_capacitances(
            capacitance_plan([[0.5e-12, 0.5e-12]], [[0.2e-12]]), 4e9, resonant))
        with pytest.raises(SingularNetworkError, match="^group 0: zero branch impedance"):
            scattering_from_capacitances(dataclasses.replace(plan, self_index=np.array([[0, 1]])),
                                         4e9, resonant)

    def test_arc_search_is_exhaustive_and_small(self):
        # 4,950 inter-element targets, as many as a fully-connected D = 100
        # surface has: the ring columns are gathered one at a time, so the
        # search holds a few (N,) arrays at once, never (N, 4) blocks
        arc = self.codebook(7.4e9).inter_arc
        rng = np.random.default_rng(5)
        targets = arc.y[rng.integers(0, arc.y.size, 4950)] + 0.05 * np.abs(arc.y).max() * (
            rng.standard_normal(4950) + 1j * rng.standard_normal(4950))
        expected = np.abs(targets[:, None] - arc.y).argmin(axis=1)
        tracemalloc.start()
        try:
            picks = arc.nearest(targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(picks, expected)
        assert peak < 600e3, f"arc search peak {peak / 1e3:.0f} kB"


def passive_plan(arch, d_bar, seed):
    """A plan with capacitances log-uniform over 1 fF .. 100 pF, far past the
    tunable ranges, so branches sit on both sides of resonance."""
    g = {"fc": 1, "gc": 2, "sc": d_bar}[arch]
    if arch == "sc":
        d_bar = 1
    d = g * d_bar
    c = np.triu(10.0 ** np.random.default_rng(seed).uniform(-15, -10, (d, d)))
    return plan_from_matrix(c + np.triu(c, 1).T, RisTopology(d, g))


class TestPassiveSolve:
    """Passive branches bound I + z0 Y, which the scattering guard relies on."""

    CASES = (st.sampled_from(["fc", "gc", "sc"]), st.integers(1, 6), st.booleans(),
             st.floats(1e9, 16e9), st.integers(0, 2 ** 31 - 1))

    @given(*CASES)
    @settings(max_examples=150, deadline=None)
    def test_smallest_singular_value_at_least_one(self, arch, d_bar, lossy, f, seed):
        a = _network_matrices(passive_plan(arch, d_bar, seed), f,
                              PARAMS if lossy else LOSSLESS)
        assert np.linalg.svd(a, compute_uv=False).min() >= 1 - 1e-12

    @given(*CASES)
    @settings(max_examples=150, deadline=None)
    def test_bound_never_exceeds_exact_rcond(self, arch, d_bar, lossy, f, seed):
        a = _network_matrices(passive_plan(arch, d_bar, seed), f,
                              PARAMS if lossy else LOSSLESS)
        norm = np.linalg.norm(a, 1, axis=(-2, -1))
        bound = 1.0 / (np.sqrt(a.shape[-1]) * norm)
        exact = 1.0 / (norm * np.linalg.norm(np.linalg.inv(a), 1, axis=(-2, -1)))
        assert np.all(bound <= exact * (1 + 1e-12))

    @given(*CASES, st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_full_product(self, arch, d_bar, lossy, f, seed, k):
        plan, params = passive_plan(arch, d_bar, seed), PARAMS if lossy else LOSSLESS
        left = crandn(np.random.default_rng(seed + 1), plan.self_index.size, k)
        expected = left.T @ scattering_from_capacitances(plan, f, params)
        rows = scattering_from_capacitances(plan, f, params, left)
        assert rows.shape == expected.shape
        assert np.abs(rows - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_rows_refuse_like_full_matrix(self):
        full = TestScatteringFromCapacitances
        plan = full.plan_with_group_1_branch("non-finite")
        with np.errstate(invalid="ignore"):
            with pytest.raises(SingularNetworkError, match="^group 1: .*rcond=nan"):
                scattering_from_capacitances(plan, 4e9, full.RESONANT, np.ones((4, 1)))
