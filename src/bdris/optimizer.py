"""Building blocks of the relaxed solve and the codebook snap.

The received-power objective is linear in the non-redundant (lower-triangular)
reflection coefficients once the channels are stacked into a reduced matrix,
so the relaxed problems are solved either in closed form via the leading
right singular vector (blocked direct links) or by a conditional-gradient
method over the norm ball (direct links present).  The relaxed solution is
then mapped to hardware capacitances by snapping the recovered branch
admittances onto a frequency-specific codebook.  The pipeline that chains
these steps is :func:`bdris.experiments.solve_trials`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Codebook, CodewordArc, RisTopology, _inverse_guarded
from .channel import ChannelSet
from .matrixkit import vech_indices


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


def _reduced_channel_block(g: np.ndarray, f: np.ndarray, d_bar: int) -> np.ndarray:
    """Rows of the reduced stacked matrix for one user, one group of ``d_bar``
    consecutive elements after another: (g_k^T kron f_k^H) D_{d_bar} per group k.

    Built without forming the Kronecker product or the duplication matrix:
    column (i, j), i >= j, of group k's product gathers conj(f_i) g[j, :] +
    conj(f_j) g[i, :] over the group's elements (halved on the diagonal,
    where the two terms coincide).
    """
    m = g.shape[1]
    t = f.conj().reshape(-1, d_bar)[None, :, :, None] * g.T.reshape(m, -1, 1, d_bar)
    s = t + t.transpose(0, 1, 3, 2)
    rows, cols = vech_indices(d_bar)
    blk = s[:, :, rows, cols]
    blk[:, :, rows == cols] *= 0.5
    return blk.reshape(m, -1)


def stack_fc(channels: ChannelSet,
             weights: ObjectiveWeights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted stacked matrix and direct-channel vector of the fully-connected problem.

    For any symmetric Theta, ||R theta + h||^2 with theta = vech(Theta)
    equals the weighted sum over users of ||f^H Theta G + h^H||^2.
    Zero-weight users would contribute all-zero rows and are left out (same
    objective, smaller matrices).
    """
    r_rows, h_rows = [], []
    for b in range(len(channels.g)):
        for k in range(len(channels.f[b])):
            w = weights.factor(b, k)
            if w == 0.0:
                continue
            r_rows.append(w * _reduced_channel_block(channels.g[b], channels.f[b][k],
                                                     channels.num_ris_elements))
            h_rows.append(w * channels.h[b][k].conj())
    return np.vstack(r_rows), np.concatenate(h_rows)


def stack_gc(channels: ChannelSet, weights: ObjectiveWeights, topology: RisTopology,
             bs: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked matrix and direct vector of one priority base station's sub-problem."""
    r_rows, h_rows = [], []
    mu = np.sqrt(weights.mu[bs])
    for k in range(len(channels.f[bs])):
        w = mu * np.sqrt(weights.nu[bs][k])
        r_rows.append(w * _reduced_channel_block(channels.g[bs], channels.f[bs][k],
                                                 topology.d_bar))
        h_rows.append(w * channels.h[bs][k].conj())
    return np.vstack(r_rows), np.concatenate(h_rows)


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
    theta, history = _frank_wolfe_batch(r[None], h[None], radius, iterations,
                                        trace=trace, step_rule=step_rule)
    if trace:
        return theta[0], float(history[0, -1]), history[0]
    return theta[0], float(history[0, -1])


def _frank_wolfe_batch(r: np.ndarray, h: np.ndarray, radius: float, iterations: int,
                       trace: bool = False, step_rule: str = "line-search"
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized conditional gradient over a batch of independent instances.

    ``r`` has shape (T, rows, cols) and ``h`` shape (T, rows).  Returns the
    (T, cols) iterates and a (T, n) objective history (n = iterations when
    tracing, else 1: just the final objective).

    The objective is convex, so its maximum over the segment from the iterate
    to the direction-finding solution always sits at the far endpoint: exact
    line search is the full step, and it never decreases the objective.

    Runs the recursion in the row space: with w = r theta + h, the gradient
    direction r^H w only ever enters through r r^H w and theta itself is a
    linear combination of r^H w iterates (plus the fixed fallback direction
    e1 taken whenever the gradient vanishes), so each iteration costs
    O(rows^2) via the Gram matrix instead of O(rows * cols).

    When every instance has a nonzero gradient (the normal case) an
    iteration takes the short update, which leaves out the terms the general
    update multiplies by an exact 0.0 or 1.0: the fallback direction
    (``0.0 * r_col0``, ``+ 0.0`` on c) and, under line search, the discarded
    iterate (``0.0 * acc``, ``0.0 * w``) and the unit weight of h.  Adding an
    exact zero or multiplying by one changes at most the sign of a zero
    result, so both updates give equal iterates; an iteration in which some
    instance's gradient vanishes (or is NaN) runs the general update.
    """
    t, rows, cols = r.shape
    gram = np.matmul(r, r.conj().transpose(0, 2, 1))   # (T, rows, rows)
    r_col0 = r[:, :, 0]                                # image of the fallback e1
    w = h.astype(complex).copy()                       # residual at theta = 0
    acc = np.zeros((t, rows), dtype=complex)           # theta = r^H acc + c e1
    c = np.zeros(t)
    history = np.zeros((t, iterations if trace else 1))
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
        w = keep * w + step * h + scale[:, None] * v + fall[:, None] * r_col0
    theta = np.matmul(r.conj().transpose(0, 2, 1), acc[..., None])[..., 0]
    theta[:, 0] += c
    resid = np.matmul(r, theta[..., None])[..., 0] + h
    history[:, -1] = np.einsum("tr,tr->t", resid.conj(), resid).real
    return theta, history


def frank_wolfe_batch(r: np.ndarray, h: np.ndarray, radius: float, iterations: int,
                      step_rule: str = "line-search") -> np.ndarray:
    """Conditional gradient over a (T, rows, cols) batch of independent instances.

    Per-instance arithmetic does not depend on the batch it runs in, so
    callers may split a batch into chunks to bound working memory.
    """
    return _frank_wolfe_batch(r, h, radius, iterations, step_rule=step_rule)[0]


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
    iu, ju = np.triu_indices(n, 1)
    return y.sum(axis=2), -y[:, iu, ju]


def snap_to_codebook(self_y: np.ndarray, inter_y: np.ndarray,
                     codebook: Codebook) -> np.ndarray:
    """(g, d_bar, d_bar) capacitance blocks whose branches best match the
    admittances :func:`relaxed_block_branches` returns, at the codebook
    frequency (nearest codeword per branch, admittance distance)."""
    g, n = self_y.shape
    ii, (iu, ju) = np.arange(n), np.triu_indices(n, 1)
    caps = np.zeros((g, n, n))
    caps[:, ii, ii] = _snap(self_y, codebook.self_arc, codebook.self_caps)
    caps[:, iu, ju] = caps[:, ju, iu] = _snap(inter_y, codebook.inter_arc,
                                              codebook.inter_caps)
    return caps
