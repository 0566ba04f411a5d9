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

    @classmethod
    def uniform(cls, users_per_bs: tuple[int, ...]) -> "ObjectiveWeights":
        b = len(users_per_bs)
        return cls(mu=(1.0,) * b, nu=tuple((1.0 / k,) * k for k in users_per_bs))


@dataclass(frozen=True)
class GroupAssignment:
    """Disjoint dedication of surface groups to priority base stations.

    ``groups[s]`` lists the group indices serving priority base station
    ``bs[s]``; a plan snaps them onto that base station's codebook.  The
    subsets must cover all groups exactly once.
    """

    bs: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.bs) != len(self.groups):
            raise ValueError("need one group subset per priority base station")
        if len(set(self.bs)) != len(self.bs):
            raise ValueError("priority base stations must be distinct")
        if any(len(g) == 0 for g in self.groups):
            raise ValueError("every priority base station needs at least one group")

    def validate(self, topology: RisTopology):
        claimed = [g for subset in self.groups for g in subset]
        if len(claimed) != len(set(claimed)):
            raise ValueError("group subsets must be disjoint")
        if sorted(claimed) != list(range(topology.g)):
            raise ValueError(f"group subsets must cover exactly groups 0..{topology.g - 1}")

    @classmethod
    def single(cls, bs: int, topology: RisTopology) -> "GroupAssignment":
        return cls(bs=(bs,), groups=(tuple(range(topology.g)),))

    @classmethod
    def even_split(cls, bs: tuple[int, ...], topology: RisTopology) -> "GroupAssignment":
        """Contiguous, near-even partition of the groups over the priority BSs."""
        s = len(bs)
        if s > topology.g:
            raise ValueError("more priority base stations than groups")
        bounds = np.linspace(0, topology.g, s + 1).astype(int)
        groups = tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(s))
        return cls(bs=bs, groups=groups)


@dataclass(frozen=True)
class FwConfig:
    """Conditional-gradient settings.

    ``step_rule`` selects how far to move toward the direction-finding
    solution: "line-search" (default) maximizes the objective exactly over
    the segment, which for this convex quadratic objective always selects the
    full step and is monotone; "diminishing" uses the classical 2/(i+2)
    schedule, whose objective can stall on instances whose two leading
    singular values nearly coincide (it rotates the iterate at a rate that
    slows with the inverse spectral gap).
    """

    iterations: int = 500
    step_rule: str = "line-search"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iteration count must be >= 1")
        if self.step_rule not in ("line-search", "diminishing"):
            raise ValueError("step_rule must be 'line-search' or 'diminishing'")


def stack_factors(channels: ChannelSet, weights: ObjectiveWeights,
                  bss) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per base station in ``bss``, the (users, D) stack of a = w_k conj(f_k) and
    the (M, D) stack of b = g[:, m]: row (k, m) of the reduced stacked matrix R
    holds a_i b_j + a_j b_i at each group's vech position (i, j), halved on the
    diagonal, so it maps vech(Theta) to a^T Theta b.  Zero-weight users would
    give all-zero rows and are left out."""
    out = []
    for b in bss:
        a = [weights.factor(b, k) * f.conj() for k, f in enumerate(channels.f[b])
             if weights.factor(b, k) != 0.0]
        if a:
            out.append((np.array(a), channels.g[b].T))
    if not out:
        raise DegenerateInputError(f"base stations {tuple(bss)} have no positive-weight user")
    return out


def _group_sums(x: np.ndarray, y: np.ndarray, g: int) -> np.ndarray:
    """(len(x) len(y), g): per group, the sum over its elements of x_i conj(y_i)."""
    return (x[:, None] * y.conj()[None]).reshape(len(x) * len(y), g, -1).sum(axis=2)


def _gram(factors, g: int) -> np.ndarray:
    """K = R R^H of the rows ``factors`` describe over g groups, in O(rows^2 D).

    Per group, K_pq = (a.a')(b.b') + (a.b')(b.a') - sum_i a_i b_i a'_i b'_i
    (primed vectors conjugated, dot products over the group's elements).
    Summed over groups, the terms are one product over the elements, one over
    the groups, and C C^H with C the elementwise products a * b.
    """
    def block(a, b, a2, b2):
        u, m, u2, m2 = len(a), len(b), len(a2), len(b2)
        aa = np.repeat(_group_sums(a, a2, g), b.shape[1] // g, axis=1)
        t1 = (aa.reshape(u, u2, 1, -1) * b).reshape(-1, b.shape[1]) @ b2.conj().T
        t2 = _group_sums(a, b2, g) @ _group_sums(b, a2, g).T
        return (t1.reshape(u, u2, m, m2).transpose(0, 2, 1, 3)
                + t2.reshape(u, m2, m, u2).transpose(0, 2, 3, 1)).reshape(u * m, u2 * m2)

    c = np.concatenate([(a[:, None] * b[None]).reshape(-1, b.shape[1]) for a, b in factors])
    return np.block([[block(*x, *y) for y in factors] for x in factors]) - c @ c.conj().T


def reduced_adjoint(factors, c: np.ndarray, g: int) -> np.ndarray:
    """R^H c without forming R: with X = sum over rows of c conj(a) conj(b)^T,
    each group's diagonal block of X + X^T, diagonal halved, in vech order,
    one group after another."""
    x, start = 0.0, 0
    for a, b in factors:
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
    return np.concatenate([np.outer(a[:, 0], b[:, 0]).ravel() for a, b in factors])


def _stack(channels: ChannelSet, weights: ObjectiveWeights, bss,
           g: int) -> tuple[np.ndarray, np.ndarray]:
    h = [weights.factor(b, k) * channels.h[b][k].conj() for b in bss
         for k in range(len(channels.f[b])) if weights.factor(b, k) != 0.0]
    return _gram(stack_factors(channels, weights, bss), g), np.concatenate(h)


def stack_fc(channels: ChannelSet,
             weights: ObjectiveWeights) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix K = R R^H and direct vector h of the fully-connected problem.

    For symmetric Theta, ||R vech(Theta) + h||^2 is the weighted sum over
    users of ||f^H Theta G + h^H||^2 (R as in :func:`stack_factors`).  The
    solvers need R only through K, :func:`reduced_adjoint` and
    :func:`first_column`, so R is never formed."""
    return _stack(channels, weights, range(len(channels.g)), 1)


def stack_gc(channels: ChannelSet, weights: ObjectiveWeights, topology: RisTopology,
             bs: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and direct vector of one priority base station's sub-problem
    over the whole group-connected surface (see :func:`stack_fc`)."""
    return _stack(channels, weights, (bs,), topology.g)


def frank_wolfe(r: np.ndarray, h: np.ndarray, radius: float, iterations: int,
                trace: bool = False, step_rule: str = "line-search"):
    """Conditional-gradient ascent of ||r theta + h||^2 over the ball ||theta|| <= radius.

    Starts from theta = 0 and takes the direction maximizing the inner
    product with the conjugate gradient 2 r^H (r theta + h).  With the
    default exact line search the objective is non-decreasing every
    iteration; the "diminishing" rule uses the step 2/(i + 2) instead.
    Returns the final iterate, its objective, and (with ``trace=True``) the
    per-iteration objective history.
    """
    acc, c, history = frank_wolfe_batch((r @ r.conj().T)[None], h[None], radius,
                                        iterations, r[None, :, 0], step_rule, trace)
    theta = r.conj().T @ acc[0]
    theta[0] += c[0]
    objective = float(np.linalg.norm(r @ theta + h) ** 2)
    if trace:
        return theta, objective, np.append(history[0], objective)
    return theta, objective


def frank_wolfe_batch(gram: np.ndarray, h: np.ndarray, radius: float | np.ndarray,
                      iterations: int, r_e1: np.ndarray, step_rule: str = "line-search",
                      trace: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized conditional gradient over a batch of independent instances.

    ``gram`` is the (T, rows, rows) stack of Gram matrices r r^H, ``h`` the
    (T, rows) offsets and ``r_e1`` the (T, rows) first columns of r.
    ``radius`` is one ball radius for every instance, or a (T,) array of
    per-instance radii; an instance's result is bitwise the same either way,
    so instances of different surfaces can share a batch.  With
    w = r theta + h the gradient direction r^H w only enters through r r^H w,
    so the recursion runs in the row space at O(rows^2) per iteration, with
    iterate theta = r^H acc + c e1 (e1: the fallback direction when the
    gradient vanishes).  Returns (T, rows) ``acc`` and (T,) ``c`` (map them
    with :func:`reduced_adjoint`) and the (T, iterations - 1) objectives
    ||w||^2 before each iteration (empty unless tracing).  An instance's
    arithmetic does not depend on its batch, so batches may be chunked.

    The objective is convex, so its maximum over the segment from the iterate
    to the direction-finding solution always sits at the far endpoint: exact
    line search is the full step, and it never decreases the objective.

    When every instance has a nonzero gradient (the normal case) an
    iteration takes the short update, which leaves out the terms the general
    update multiplies by an exact 0.0 or 1.0: the fallback direction
    (``0.0 * r_e1``, ``+ 0.0`` on c) and, under line search, the discarded
    iterate (``0.0 * acc``, ``0.0 * w``) and the unit weight of h.  Adding an
    exact zero or multiplying by one changes at most the sign of a zero
    result, so both updates give equal iterates; an iteration in which some
    instance's gradient vanishes (or is NaN) runs the general update.
    """
    t, rows, _ = gram.shape
    w = h.astype(complex).copy()                       # residual at theta = 0
    acc = np.zeros((t, rows), dtype=complex)
    c = np.zeros(t)
    history = np.zeros((t, iterations - 1 if trace else 0))
    line_search = step_rule == "line-search"
    for i in range(1, iterations):
        if trace:
            history[:, i - 1] = np.einsum("tr,tr->t", w.conj(), w).real
        v = np.matmul(gram, w[..., None])[..., 0]
        grad_sq = np.einsum("tr,tr->t", w.conj(), v).real  # = ||r^H w||^2 >= 0
        step = 1.0 if line_search else 2.0 / (i + 2.0)
        keep = 1.0 - step
        if (grad_sq > 0.0).all():
            scale = (step * radius / np.sqrt(grad_sq))[:, None]
            if line_search:
                acc = scale * w
                w = h + scale * v
            else:
                acc = keep * acc + scale * w
                w = keep * w + step * h + scale * v
            c = keep * c
            continue
        flat = grad_sq <= 0.0
        grad_norm = np.sqrt(np.where(flat, 1.0, grad_sq))
        scale = np.where(flat, 0.0, step * radius / grad_norm)
        fall = np.where(flat, step * radius, 0.0)
        acc = keep * acc + scale[:, None] * w
        c = keep * c + fall
        w = keep * w + step * h + scale[:, None] * v + fall[:, None] * r_e1
    return acc, c, history


def _snap(targets: np.ndarray, arc: CodewordArc, caps: np.ndarray) -> np.ndarray:
    """Nearest-codeword capacitances for an array of branch admittance
    targets; ties resolve to the smallest capacitance.

    Distance is measured between branch ADMITTANCES, not impedances: the
    network matrix is assembled from branch admittances, so quantization
    error in admittance perturbs the realized reflection linearly, whereas
    impedance distance over-weights the weakly coupled (large-impedance)
    branches whose admittance barely matters.  An open branch (zero
    admittance) therefore takes the largest-impedance codeword.  The search
    runs along the codewords' ``arc`` and picks what an exhaustive search
    over all codewords would.
    """
    return caps[arc.nearest(targets.ravel())].reshape(targets.shape)


def relaxed_block_branches(theta_blocks: np.ndarray, z0: float
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Branch admittances realizing a (g, d_bar, d_bar) stack of relaxed
    reflection blocks.

    Frequency independent: each block's admittance matrix is
    Y = (2 (I + Theta)^-1 - I) / z0, from one guarded inverse of the whole
    stack, symmetrized.  Returns the (g, d_bar) self admittances (row sums of
    Y) and the (g, d_bar (d_bar - 1) / 2) inter-element admittances (-Y on
    the upper triangle, row by row).  An open port (Theta eigenvalue +1) is
    a zero admittance, not an error; a short circuit (eigenvalue -1) raises
    :class:`~bdris.errors.SingularNetworkError` naming its group.
    """
    n = theta_blocks.shape[-1]
    eye = np.eye(n)
    y = (2.0 * _inverse_guarded(eye + theta_blocks, "I + Theta") - eye) / z0
    y = 0.5 * (y + y.transpose(0, 2, 1))
    iu, ju = strict_upper_indices(n)
    return y.sum(axis=2), -y[:, iu, ju]


def snap_to_codebook(self_y: np.ndarray, inter_y: np.ndarray,
                     codebook: Codebook) -> np.ndarray:
    """(g, d_bar, d_bar) capacitance blocks whose branches best match the
    admittances :func:`relaxed_block_branches` returns, at the codebook
    frequency (nearest codeword per branch, admittance distance)."""
    g, n = self_y.shape
    ii, (iu, ju) = np.arange(n), strict_upper_indices(n)
    caps = np.zeros((g, n, n))
    caps[:, ii, ii] = _snap(self_y, codebook.self_arc, codebook.self_caps)
    caps[:, iu, ju] = caps[:, ju, iu] = _snap(inter_y, codebook.inter_arc,
                                              codebook.inter_caps)
    return caps
