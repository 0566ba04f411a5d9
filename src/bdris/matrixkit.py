"""Dense matrix helpers of the solvers: triangle indices and the leading
singular vector.

The solvers lay out a symmetric block's coefficients in vech order: the
lower triangle, entries (i, j) with i >= j, taken column by column
(:func:`vech_indices`).  This is the single source of truth for that layout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError


def vech_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) index arrays of the lower triangle in vech (column-major) order."""
    if d < 1:
        raise ValueError("order must be >= 1")
    # triu_indices enumerates the upper triangle row by row; swapping the two
    # arrays walks the lower triangle column by column, which is vech order.
    cols, rows = np.triu_indices(d)
    return rows, cols


@lru_cache(maxsize=None)
def strict_upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions i n + j of an n x n matrix's strict upper triangle, row
    by row (the order of ``np.triu_indices(n, 1)``), and j n + i of their
    mirror images; built once per order and read-only."""
    rows, cols = np.triu_indices(n, 1)
    upper, lower = rows * n + cols, cols * n + rows
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


# Inverse iteration's shift and stopping residual, in units of n eps ||k||,
# and its cap on solves (see leading_right_singular_vector).
SHIFT_ULPS = 4
RESIDUAL_ULPS = 4
MAX_SOLVES = 3


def leading_right_singular_vector(k: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-norm leading singular vector of a Hermitian positive semidefinite
    matrix, and its singular value.

    For such a matrix these are its top eigenpair.  The eigenvalue λ₁ comes
    from ``eigvalsh(k)``, the vector from inverse iteration on μI - k with
    μ = λ₁ + 4 n eps ||k|| (n the order, ||k|| the spectral norm), started
    from the all-ones vector and stopped once the residual ||k v - λ₁ v|| is
    at most 4 n eps ||k||: two solves as a rule, at most ``MAX_SOLVES``.  A
    start vector with no component along the leading direction never gets
    there, and then the vector comes from ``eigh(k)``.  For the Gram matrix
    K = R R^H of a matrix R these are R's leading left singular vector and
    squared singular value.

    The phase is normalized so the first entry with magnitude above 1e-12 is
    real and nonnegative, making the returned vector a canonical
    representative of the (phase-ambiguous) singular direction.
    """
    k = np.asarray(k)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {k.shape}")
    if not np.any(k):
        raise DegenerateInputError("all-zero matrix has no leading singular direction")
    n = k.shape[0]
    eigvals = np.linalg.eigvalsh(k)
    top = eigvals[-1]
    ulp = n * np.finfo(float).eps * max(-eigvals[0], top)
    shifted = -k
    shifted.flat[::n + 1] += top + SHIFT_ULPS * ulp
    v = np.ones(n, dtype=shifted.dtype)
    for _ in range(MAX_SOLVES):
        v = np.linalg.solve(shifted, v)
        v /= np.linalg.norm(v)
        if np.linalg.norm(k @ v - top * v) <= RESIDUAL_ULPS * ulp:
            break
    else:
        v = np.linalg.eigh(k)[1][:, -1]
    return _canonical_phase(v), float(max(top, 0.0))


def _canonical_phase(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    significant = np.flatnonzero(np.abs(v) > tol)
    if significant.size:
        pivot = v[significant[0]]
        v = v * (np.conj(pivot) / np.abs(pivot))
        v[significant[0]] = np.abs(pivot)  # exactly real, not up to rounding
    return v
