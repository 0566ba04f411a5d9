"""Dense complex matrix utilities: vectorization maps, duplication matrices, the leading
singular vector.

Ordering convention used everywhere in this package: ``vec`` stacks columns
(column-major), and ``vech`` stacks the columns of the lower triangle, i.e.
entries (i, j) with i >= j taken column by column.  This is the single source
of truth for the coefficient layout consumed by the solvers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into a vector."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"vec expects a 2-D array, got shape {a.shape}")
    return a.flatten(order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a length rows*cols vector into a matrix."""
    v = np.asarray(v)
    if v.ndim != 1 or v.size != rows * cols:
        raise ValueError(f"cannot unvec length-{v.size} vector into {rows}x{cols}")
    return v.reshape((rows, cols), order="F").copy()


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
    """``np.triu_indices(n, 1)``, built once per order and read-only."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def vech(a: np.ndarray) -> np.ndarray:
    """Stack the lower-triangular half of a square matrix into a vector."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"vech expects a square matrix, got shape {a.shape}")
    rows, cols = vech_indices(a.shape[0])
    return a[rows, cols].copy()


def unvech(theta: np.ndarray, d: int) -> np.ndarray:
    """Symmetric d x d matrix whose vech equals ``theta``.

    Equals ``unvec(duplication_matrix(d) @ theta, d, d)`` without forming the
    duplication matrix.
    """
    theta = np.asarray(theta)
    n = d * (d + 1) // 2
    if theta.ndim != 1 or theta.size != n:
        raise ValueError(f"expected {n} coefficients for order {d}, got {theta.size}")
    rows, cols = vech_indices(d)
    out = np.zeros((d, d), dtype=np.result_type(theta, float))
    out[rows, cols] = theta
    out[cols, rows] = theta
    return out


def duplication_matrix(d: int) -> np.ndarray:
    """0/1 matrix D_d of shape (d^2, d(d+1)/2) with D_d @ vech(A) = vec(A) for symmetric A.

    Column k, corresponding to the lower-triangle position (i, j) in vech
    order, carries a unit entry at the vec positions of (i, j) and (j, i);
    diagonal positions get a single unit entry.
    """
    if d < 1:
        raise ValueError("order must be >= 1")
    rows, cols = vech_indices(d)
    dd = np.zeros((d * d, d * (d + 1) // 2))
    k = np.arange(rows.size)
    dd[cols * d + rows, k] = 1.0
    dd[rows * d + cols, k] = 1.0
    return dd


def leading_right_singular_vector(k: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-norm leading singular vector of a Hermitian positive semidefinite
    matrix, and its singular value.

    For such a matrix these are its top eigenpair, taken from one
    ``eigh(k)``, which reads only the lower triangle.  For the Gram matrix
    K = R R^H of a matrix R they are R's leading left singular vector and
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
    eigvals, eigvecs = np.linalg.eigh(k)
    return _canonical_phase(eigvecs[:, -1]), float(max(eigvals[-1], 0.0))


def _canonical_phase(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    significant = np.flatnonzero(np.abs(v) > tol)
    if significant.size:
        pivot = v[significant[0]]
        v = v * (np.conj(pivot) / np.abs(pivot))
        v[significant[0]] = np.abs(pivot)  # exactly real, not up to rounding
    return v
