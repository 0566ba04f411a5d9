import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdris.errors import DegenerateInputError
from bdris.matrixkit import _canonical_phase, leading_right_singular_vector, vech_indices
from reference_model import crandn, duplication_matrix, unvec, unvech, vec, vech


def duplication_matrix_reference(d):
    """Oracle: accumulate the unit-vector outer products one lower-triangle
    position at a time, exactly as the incremental generation procedure does."""
    n = d * (d + 1) // 2
    ddt = np.zeros((n, d * d))
    for i in range(1, d + 1):
        for j in range(1, i + 1):
            u = np.zeros(n)
            u[(j - 1) * d + i - j * (j - 1) // 2 - 1] = 1.0
            t = np.zeros((d, d))
            t[i - 1, j - 1] = 1.0
            t[j - 1, i - 1] = 1.0
            ddt += np.outer(u, t.flatten(order="F"))
    return ddt.T


class TestVecUnvec:
    def test_column_stacking(self):
        assert np.array_equal(vec(np.array([[1, 3], [2, 4]])), [1, 2, 3, 4])

    def test_single_entry(self):
        assert np.array_equal(vec(np.array([[5]])), [5])

    def test_roundtrip_rectangular(self):
        rng = np.random.default_rng(0)
        a = crandn(rng, 3, 2)
        assert np.array_equal(unvec(vec(a), 3, 2), a)

    def test_unvec_example(self):
        assert np.array_equal(unvec(np.array([1, 2, 3, 4]), 2, 2), [[1, 3], [2, 4]])

    def test_unvec_zeros(self):
        assert np.array_equal(unvec(np.zeros(4), 2, 2), np.zeros((2, 2)))

    def test_unvec_roundtrip_square(self):
        rng = np.random.default_rng(1)
        v = crandn(rng, 25)
        assert np.array_equal(vec(unvec(v, 5, 5)), v)

    def test_unvec_dimension_mismatch(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(5), 2, 2)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, rows, cols, seed):
        a = crandn(np.random.default_rng(seed), rows, cols)
        assert np.array_equal(unvec(vec(a), rows, cols), a)


class TestVech:
    def test_lower_triangle(self):
        a = np.array([[1, 2], [2, 4]])
        assert np.array_equal(vech(a), [1, 2, 4])
        assert np.array_equal(a[vech_indices(2)], vech(a))  # the solvers' layout

    def test_identity_order3(self):
        assert np.array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])

    def test_duplication_reconstructs_vec(self):
        rng = np.random.default_rng(2)
        a = crandn(rng, 3, 3)
        a = a + a.T
        assert np.allclose(duplication_matrix(3) @ vech(a), vec(a))

    def test_unvech_matches_duplication(self):
        rng = np.random.default_rng(3)
        for d in range(1, 7):
            theta = crandn(rng, d * (d + 1) // 2)
            via_dup = unvec(duplication_matrix(d) @ theta, d, d)
            assert np.array_equal(unvech(theta, d), via_dup)

    def test_unvech_wrong_length(self):
        with pytest.raises(ValueError):
            unvech(np.zeros(4), 3)


class TestKron:
    def test_identity_times_scalar(self):
        a = 2.5 + 1j
        assert np.array_equal(np.kron(np.eye(2), np.array([[a]])), np.diag([a, a]))

    def test_identity_gives_block_diagonal(self):
        rng = np.random.default_rng(4)
        b = crandn(rng, 2, 2)
        out = np.kron(np.eye(2), b)
        assert np.array_equal(out[:2, :2], b)
        assert np.array_equal(out[2:, 2:], b)
        assert np.all(out[:2, 2:] == 0) and np.all(out[2:, :2] == 0)

    def test_vec_identity(self):
        # vec(A X C) = (C^T kron A) vec(X), both sides evaluated directly
        rng = np.random.default_rng(5)
        a, x, c = crandn(rng, 2, 3), crandn(rng, 3, 2), crandn(rng, 2, 2)
        lhs = vec(a @ x @ c)
        rhs = np.kron(c.T, a) @ vec(x)
        assert np.abs(lhs - rhs).max() < 1e-12

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_vec_identity_property(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n, p = rng.integers(1, 5, size=4)
        a, x, c = crandn(rng, m, k), crandn(rng, k, n), crandn(rng, n, p)
        lhs = vec(a @ x @ c)
        rhs = np.kron(c.T, a) @ vec(x)
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() < 1e-12 * scale


class TestDuplicationMatrix:
    def test_order_one(self):
        assert np.array_equal(duplication_matrix(1), [[1.0]])

    def test_order_two_rows(self):
        expected = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        assert np.array_equal(duplication_matrix(2), expected)

    def test_invalid_order(self):
        # the solvers' vech layout has no order below 1
        with pytest.raises(ValueError):
            vech_indices(0)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_incremental_construction(self, d):
        assert np.array_equal(duplication_matrix(d), duplication_matrix_reference(d))

    def test_column_structure(self):
        for d in (2, 5):
            dd = duplication_matrix(d)
            sums = dd.sum(axis=0)
            rows, cols = vech_indices(d)
            assert np.array_equal(sums, np.where(rows == cols, 1.0, 2.0))
            assert np.linalg.matrix_rank(dd) == d * (d + 1) // 2

    def test_identity_on_random_symmetric(self):
        rng = np.random.default_rng(6)
        dd = duplication_matrix(5)
        for _ in range(100):
            a = crandn(rng, 5, 5)
            a = a + a.T
            assert np.array_equal(dd @ vech(a), vec(a))

    @pytest.mark.parametrize("d", range(2, 11))
    def test_norm_bounds(self, d):
        # expansion bound and the 1/sqrt(D) contraction, strict with nonzero
        # diagonal entries
        rng = np.random.default_rng(d)
        dd = duplication_matrix(d)
        theta = crandn(rng, 200, d * (d + 1) // 2)
        expanded = np.linalg.norm(theta @ dd.T, axis=1)
        base = np.linalg.norm(theta, axis=1)
        assert np.all(expanded < np.sqrt(2) * base)
        assert np.all(expanded / np.sqrt(d) <= base)
        rows, cols = vech_indices(d)
        has_diag = np.abs(theta[:, rows == cols]).max(axis=1) > 0
        assert np.all(expanded[has_diag] / np.sqrt(d) < base[has_diag])


class TestLeadingRightSingularVector:
    def test_diagonal(self):
        v, sigma = leading_right_singular_vector(np.diag([3.0, 1.0]))
        assert sigma == pytest.approx(3.0)
        assert np.allclose(v, [1.0, 0.0])

    def test_rank_one(self):
        # K = a a^H for a = c u w^H: K = |c|^2 ||w||^2 u u^H
        rng = np.random.default_rng(7)
        u = crandn(rng, 4)
        w = crandn(rng, 3)
        c = 2.0 - 1.5j
        a = c * np.outer(u, w.conj())
        v, sigma = leading_right_singular_vector(a @ a.conj().T)
        assert sigma == pytest.approx((abs(c) * np.linalg.norm(u) * np.linalg.norm(w)) ** 2)
        # v matches u up to the canonical phase
        u_unit = u / np.linalg.norm(u)
        u_unit = u_unit * np.conj(u_unit[0]) / abs(u_unit[0])
        assert np.allclose(v, u_unit)

    def test_maximizes_over_random_vectors(self):
        rng = np.random.default_rng(8)
        a = crandn(rng, 8, 6)
        k = a @ a.conj().T
        v, sigma = leading_right_singular_vector(k)
        assert np.vdot(v, k @ v).real == pytest.approx(sigma)
        x = crandn(rng, 8, 1000)
        x /= np.linalg.norm(x, axis=0)
        assert np.einsum("ij,ij->j", x.conj(), k @ x).real.max() <= sigma * (1 + 1e-12)

    def test_phase_normalization(self):
        rng = np.random.default_rng(9)
        a = crandn(rng, 5, 5)
        k = a @ a.conj().T
        v, _ = leading_right_singular_vector(k)
        pivot = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0
        # a unitary similarity by a diagonal phase moves the direction by the
        # same phases, which the canonical form then removes from the pivot
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        v2, _ = leading_right_singular_vector(phases[:, None] * k * phases.conj())
        assert np.allclose(v2, _canonical_phase(phases * v))

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            leading_right_singular_vector(np.zeros((3, 3)))

    def test_start_orthogonal_to_leading_direction(self):
        # inverse iteration starts from all ones, here an eigenvector of the
        # second eigenvalue, so it never reaches the leading direction
        v, sigma = leading_right_singular_vector(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert sigma == pytest.approx(3.0)
        assert np.allclose(v, np.array([1.0, -1.0]) / np.sqrt(2))

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_svd(self, rows, cols, seed):
        # Gram matrices K = a a^H of wide, tall and square a, against the thin
        # SVD of a as the oracle: K's leading direction is a's leading left
        # singular vector, its value the squared singular value
        a = crandn(np.random.default_rng(seed), rows, cols)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        # the singular direction is defined only up to phase when the top
        # singular value is (nearly) repeated
        assume(s.size == 1 or s[0] - s[1] > 1e-4 * s[0])
        v, sigma = leading_right_singular_vector(a @ a.conj().T)
        assert abs(sigma - s[0] ** 2) <= 1e-12 * s[0] ** 2
        expected = u[:, 0]
        pivot = expected[np.flatnonzero(np.abs(expected) > 1e-12)[0]]
        expected = expected * np.conj(pivot) / np.abs(pivot)
        assert np.abs(v - expected).max() <= 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            leading_right_singular_vector(np.ones((2, 3)))
