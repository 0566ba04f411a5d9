"""Building blocks of the relaxed solve and the codebook snap.

The received-power objective is linear in the non-redundant (lower-triangular)
reflection coefficients through a reduced stacked matrix R, so the relaxed
problems are solved in closed form via R's leading right singular vector
(blocked direct links) or by conditional gradient over the norm ball (direct
links present).  Both need R only through R R^H and R^H c, which the
symmetric structure gives in closed form from the channels: R is never
formed.  The relaxed solution is then mapped to hardware capacitances by
snapping the recovered branch admittances onto a frequency-specific codebook.
The pipeline that chains these steps is :func:`bdris.experiments.solve_trials`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Codebook, CodewordArc, RisTopology, _inverse_guarded
from .channel import ChannelSet
from .errors import DegenerateInputError
from .matrixkit import strict_upper_indices, vech_indices


@dataclass(frozen=True)
class ObjectiveWeights:
    """Per-base-station weights ``mu`` and per-user weights ``nu``."""

    mu: tuple[float, ...]
    nu: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.nu) != len(self.mu):
            raise ValueError("need one user weight tuple per base station")
        flat = [m * n for m, users in zip(self.mu, self.nu) for n in users]
        if any(m < 0 for m in self.mu) or any(w < 0 for w in flat):
            raise ValueError("weights must be >= 0")
        if not any(w > 0 for w in flat):
            raise ValueError("at least one (mu, nu) product must be positive")

    def factor(self, b: int, k: int) -> float:
        return float(np.sqrt(self.mu[b] * self.nu[b][k]))


@dataclass(frozen=True)
class GroupAssignment:
    """Dedication of surface groups to priority base stations.

    ``owner[k]`` is the priority base station group k serves; a plan snaps
    the group onto that base station's codebook.
    """

    owner: tuple[int, ...]

    @property
    def bs(self) -> tuple[int, ...]:
        """The priority base stations, in order of their first group."""
        return tuple(dict.fromkeys(self.owner))

    def validate(self, topology: RisTopology):
        if len(self.owner) != topology.g:
            raise ValueError(f"need one owner per group, {topology.g} groups")

    @classmethod
    def single(cls, bs: int, topology: RisTopology) -> "GroupAssignment":
        return cls((bs,) * topology.g)

    @classmethod
    def even_split(cls, bs: tuple[int, ...], topology: RisTopology) -> "GroupAssignment":
        """Contiguous, near-even partition of the groups over the priority BSs."""
        if len(bs) > topology.g:
            raise ValueError("more priority base stations than groups")
        bounds = np.linspace(0, topology.g, len(bs) + 1).astype(int)
        return cls(tuple(b for b, n in zip(bs, np.diff(bounds)) for _ in range(n)))


def stack_factors(channels: ChannelSet, weights: ObjectiveWeights,
                  bss) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per base station in ``bss``, the (users, D) stack of a = w_k conj(f_k),
    the (M, D) stack of b = g[:, m] and the (users, M) stack of direct rows
    d = w_k conj(h_k): row (k, m) of the reduced stacked matrix R holds
    a_i b_j + a_j b_i at each group's vech position (i, j), halved on the
    diagonal, so it maps Theta's coefficients in vech order to a^T Theta b,
    and d[k, m] is that row's direct term.  Zero-weight users would give
    all-zero rows and are left out."""
    out = []
    for b in bss:
        users = [k for k in range(len(channels.f[b])) if weights.factor(b, k) != 0.0]
        if users:
            w = np.array([weights.factor(b, k) for k in users])[:, None]
            out.append((w * np.conj([channels.f[b][k] for k in users]), channels.g[b].T,
                        w * np.conj([channels.h[b][k] for k in users])))
    if not out:
        raise DegenerateInputError(f"base stations {tuple(bss)} have no positive-weight user")
    return out


def _group_products(x: np.ndarray, y: np.ndarray, g: int) -> np.ndarray:
    """(g, len(x) len(y)): per group, x y^H over the group's elements, raveled."""
    return (x.reshape(len(x), g, -1).transpose(1, 0, 2)
            @ y.conj().reshape(len(y), g, -1).transpose(1, 2, 0)).reshape(g, -1)


def _gram(factors, g: int, out: np.ndarray | None = None) -> np.ndarray:
    """K = R R^H of the rows ``factors`` describe over g groups, in O(rows^2 D),
    written into ``out`` if given.

    Per group, K_pq = (a.a')(b.b') + (a.b')(b.a') - sum_i a_i b_i a'_i b'_i
    (primed vectors conjugated, dot products over the group's elements).
    With P_xy the per-group products x y^H, the block of two base stations is
    the sum over groups of P_aa' kron P_bb', plus that of P_ab' and P_ba' with
    the column's user and antenna swapped, less C C^H, with C the elementwise
    products a * b.  With one element per group (single connected) the three
    terms are equal, so K is C C^H alone.
    """
    c = np.concatenate([(a[:, None] * b[None]).reshape(-1, b.shape[1]) for a, b, _ in factors])
    k = np.matmul(c, c.conj().T, out=out)
    if c.shape[1] == g:
        return k
    np.negative(k, out=k)
    cuts = np.cumsum([len(a) * len(b) for a, b, _ in factors])[:-1]
    for (a, b, _), row in zip(factors, np.split(k, cuts)):
        for (a2, b2, _), block in zip(factors, np.split(row, cuts, axis=1)):
            u, m, u2, m2 = len(a), len(b), len(a2), len(b2)
            block = block.reshape(u, m, u2, m2)    # a view of K: (user, antenna) pairs
            block += (_group_products(a, a2, g).T @ _group_products(b, b2, g)).reshape(
                u, u2, m, m2).transpose(0, 2, 1, 3)
            block += (_group_products(a, b2, g).T @ _group_products(b, a2, g)).reshape(
                u, m2, m, u2).transpose(0, 2, 3, 1)
    return k


def reduced_adjoint(factors, c: np.ndarray, g: int) -> np.ndarray:
    """R^H c without forming R: with X = sum over rows of c conj(a) conj(b)^T,
    each group's diagonal block of X + X^T, diagonal halved, in vech order,
    one group after another."""
    x, start = 0.0, 0
    for a, b, _ in factors:
        u, stop = len(a), start + len(a) * len(b)
        w = c[start:stop].reshape(u, -1) @ b.conj()                  # (users, D)
        x = x + np.matmul(a.conj().reshape(u, g, -1).transpose(1, 2, 0),
                          w.reshape(u, g, -1).transpose(1, 0, 2))   # (g, d_bar, d_bar)
        start = stop
    rows, cols = vech_indices(x.shape[-1])
    theta = x[:, rows, cols] + x[:, cols, rows]
    theta[:, rows == cols] *= 0.5
    return theta.ravel()


def first_column(factors) -> np.ndarray:
    """R e1, the image of the conditional gradient's fallback direction."""
    return np.concatenate([np.outer(a[:, 0], b[:, 0]).ravel() for a, b, _ in factors])


def stack_fc(factors, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix K = R R^H and direct vector h of the fully-connected
    problem with row factors ``factors`` (see :func:`stack_factors`).

    For symmetric Theta with coefficients theta in vech order, ||R theta + h||^2
    is the weighted sum over users of ||f^H Theta G + h^H||^2.  The solvers
    need R only through K, :func:`reduced_adjoint` and :func:`first_column`,
    so R is never formed.  K is written into ``out`` if given (and is then
    ``out`` itself)."""
    return stack_gc(factors, 1, out)


def stack_gc(factors, g: int, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and direct vector of one priority base station's sub-problem
    over a surface of g groups (see :func:`stack_fc`)."""
    return _gram(factors, g, out), np.concatenate([d.ravel() for _, _, d in factors])


# Every FREEZE_EVERY iterations, an instance whose last step moved its
# row-space iterate by at most FREEZE_STEP of the iterate's norm has stopped
# moving: it is frozen at that iterate and leaves the batch.
FREEZE_EVERY = 10
FREEZE_STEP = 1e-14


def frank_wolfe_batch(gram: np.ndarray, h: np.ndarray, radius: float | np.ndarray,
                      iterations: int, r_e1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized conditional gradient over a batch of independent instances.

    ``gram`` is the (T, rows, rows) stack of Gram matrices r r^H, ``h`` the
    (T, rows) offsets and ``r_e1`` the (T, rows) first columns of r.
    ``radius`` is one ball radius for every instance, or a (T,) array of
    per-instance radii; an instance's result is bitwise the same either way,
    so instances of different surfaces can share a batch.  With
    w = r theta + h the gradient direction r^H w only enters through r r^H w,
    so the recursion runs in the row space at O(rows^2) per iteration, with
    iterate theta = r^H acc + c e1 (e1: the fallback direction when the
    gradient vanishes).  Returns (T, rows) ``acc`` and (T,) ``c``; map them
    with :func:`reduced_adjoint`.

    ``iterations`` is a cap.  Every ``FREEZE_EVERY`` iterations, each
    instance whose step ||acc_k - acc_{k-1}|| is at most ``FREEZE_STEP``
    ||acc_k|| returns acc_k and c_k and leaves the batch; the others run on,
    at most to the cap.  The rule reads only the instance's own iterates, so
    its result does not depend on its batch, and batches may be chunked.
    The live instances are moved to the front of ``gram`` in place, so
    ``gram`` is workspace: its contents are unspecified on return.  (A
    compacted copy would add its size to the peak memory while the caller
    still holds the full batch.)

    The step is the exact line search.  The objective is convex, so its
    maximum over the segment from the iterate to the direction-finding
    solution always sits at the far endpoint: the step is the full one, the
    iterate is the direction-finding solution, and the objective never
    decreases.  When every live instance has a nonzero gradient (the normal
    case) an iteration takes the short update; otherwise (a vanishing or NaN
    gradient) it runs the general update, in which a flat instance steps
    along e1 instead.  For the other instances the general update only adds
    ``0.0 * r_e1``, which changes at most the sign of a zero, so both updates
    give equal iterates.
    """
    if iterations < 1:
        raise ValueError("iteration count must be >= 1")
    t, rows, _ = gram.shape
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (t,))
    h = h.astype(complex)
    w = h.copy()                                       # residual at theta = 0
    acc, c = np.zeros((t, rows), dtype=complex), np.zeros(t)
    out_acc, out_c = acc.copy(), c.copy()
    live = np.arange(t)                                # batch index of each live instance
    for k in range(1, iterations):
        prev = acc
        v = np.matmul(gram[:live.size], w[..., None])[..., 0]
        grad_sq = np.einsum("tr,tr->t", w.conj(), v).real  # = ||r^H w||^2 >= 0
        if (grad_sq > 0.0).all():
            scale = (radius / np.sqrt(grad_sq))[:, None]
            acc = scale * w
            w = h + scale * v
            c = np.zeros(live.size)
        else:
            flat = grad_sq <= 0.0
            scale = np.where(flat, 0.0, radius / np.sqrt(np.where(flat, 1.0, grad_sq)))[:, None]
            c = np.where(flat, radius, 0.0)
            acc = scale * w
            w = h + scale * v + c[:, None] * r_e1
        if k % FREEZE_EVERY:
            continue
        done = (np.linalg.norm(acc - prev, axis=1)
                <= FREEZE_STEP * np.linalg.norm(acc, axis=1))
        if not done.any():
            continue
        out_acc[live[done]], out_c[live[done]] = acc[done], c[done]
        keep = np.flatnonzero(~done)
        for j, src in enumerate(keep):                 # src >= j: front to back is safe
            if j != src:
                gram[j] = gram[src]
        live, acc, c, w, h, r_e1, radius = (
            x[keep] for x in (live, acc, c, w, h, r_e1, radius))
        if not live.size:
            break
    out_acc[live], out_c[live] = acc, c
    return out_acc, out_c


def _snap(targets: np.ndarray, arc: CodewordArc) -> np.ndarray:
    """Nearest-codeword indices, in codebook order, for an array of branch
    admittance targets; ties resolve to the smallest capacitance.

    Distance is measured between branch ADMITTANCES, not impedances: the
    network matrix is assembled from branch admittances, so quantization
    error in admittance perturbs the realized reflection linearly, whereas
    impedance distance over-weights the weakly coupled (large-impedance)
    branches whose admittance barely matters.  An open branch (zero
    admittance) therefore takes the largest-impedance codeword.  The search
    runs along the codewords' ``arc`` and picks what an exhaustive search
    over all codewords would.
    """
    return arc.nearest(targets.ravel()).reshape(targets.shape)


def relaxed_block_branches(theta_blocks: np.ndarray, z0: float
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Branch admittances realizing a (g, d_bar, d_bar) complex stack of
    relaxed reflection blocks, which is workspace: Y is written into it.

    Frequency independent: each block's admittance matrix is
    Y = (2 (I + Theta)^-1 - I) / z0, from one guarded inverse of the whole
    stack (the one full-size temporary), symmetrized.  Returns the (g, d_bar)
    self admittances (row sums of Y) and the (g, d_bar (d_bar - 1) / 2)
    inter-element admittances (-Y on the upper triangle, row by row).  An
    open port (Theta eigenvalue +1) is a zero admittance, not an error; a
    short circuit (eigenvalue -1) raises
    :class:`~bdris.errors.SingularNetworkError` naming its group.
    """
    g, n, _ = theta_blocks.shape
    diag = np.arange(n)
    theta_blocks[:, diag, diag] += 1.0
    y = _inverse_guarded(theta_blocks, "I + Theta")
    y *= 2.0
    y[:, diag, diag] -= 1.0
    y /= z0
    y = np.add(y, y.transpose(0, 2, 1), out=theta_blocks)
    y *= 0.5
    return y.sum(axis=2), -y.reshape(g, n * n)[:, strict_upper_indices(n)[0]]


def snap_to_codebook(self_y: np.ndarray, inter_y: np.ndarray,
                     codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Self and inter-element codeword indices (the layout of
    :func:`relaxed_block_branches`) whose branches best match those admittances
    at the codebook frequency (nearest codeword per branch, admittance distance)."""
    return _snap(self_y, codebook.self_arc), _snap(inter_y, codebook.inter_arc)
