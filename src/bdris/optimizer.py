"""Building blocks of the relaxed solve and the codebook snap.

The received-power objective is linear in the non-redundant (lower-triangular)
reflection coefficients once the channels are stacked into a reduced matrix,
so the relaxed problems are solved either in closed form via the leading
right singular vector (blocked direct links) or by a conditional-gradient
method over the norm ball (direct links present).  The relaxed solution is
then mapped to hardware capacitances by snapping the recovered branch
impedances onto a frequency-specific codebook.  The pipeline that chains
these steps is :func:`bdris.experiments.solve_trials`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    BranchImpedances,
    Codebook,
    CodewordArc,
    RisTopology,
    impedance_from_scattering,
    retrieve_branch_impedances,
)
from .channel import ChannelSet
from .matrixkit import unvech, vech_indices


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
    ``bs[s]``, whose codebook is built at ``frequencies[s]``.  The subsets
    must cover all groups exactly once.
    """

    bs: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    frequencies: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.bs) == len(self.groups) == len(self.frequencies)):
            raise ValueError("need one group subset and one frequency per priority base station")
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
    def single(cls, bs: int, topology: RisTopology, frequency: float) -> "GroupAssignment":
        return cls(bs=(bs,), groups=(tuple(range(topology.g)),), frequencies=(frequency,))

    @classmethod
    def even_split(cls, bs: tuple[int, ...], topology: RisTopology,
                   frequencies: tuple[float, ...]) -> "GroupAssignment":
        """Contiguous, near-even partition of the groups over the priority BSs."""
        s = len(bs)
        if s > topology.g:
            raise ValueError("more priority base stations than groups")
        bounds = np.linspace(0, topology.g, s + 1).astype(int)
        groups = tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(s))
        return cls(bs=bs, groups=groups, frequencies=frequencies)


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


def _reduced_channel_block(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Rows of the reduced stacked matrix for one user: (g^T kron f^H) D_d.

    Built without forming the Kronecker product or the duplication matrix:
    column (i, j), i >= j, of the product gathers conj(f_i) g[j, :] +
    conj(f_j) g[i, :] (halved on the diagonal, where the two terms coincide).
    """
    d = f.size
    t = f.conj()[None, :, None] * g.T[:, None, :]
    s = t + t.transpose(0, 2, 1)
    rows, cols = vech_indices(d)
    blk = s[:, rows, cols]
    blk[:, rows == cols] *= 0.5
    return blk


def _reduced_group_block(g: np.ndarray, f: np.ndarray, topology: RisTopology) -> np.ndarray:
    """Concatenated per-group reduced blocks for one user (block-diagonal surface)."""
    if topology.d_bar == 1:
        return (g * f.conj()[:, None]).T
    parts = [
        _reduced_channel_block(g[topology.group_slice(k)], f[topology.group_slice(k)])
        for k in range(topology.g)
    ]
    return np.hstack(parts)


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
            r_rows.append(w * _reduced_channel_block(channels.g[b], channels.f[b][k]))
            h_rows.append(w * channels.h[b][k].conj())
    return np.vstack(r_rows), np.concatenate(h_rows)


def stack_gc(channels: ChannelSet, weights: ObjectiveWeights, topology: RisTopology,
             bs: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked matrix and direct vector of one priority base station's sub-problem."""
    r_rows, h_rows = [], []
    mu = np.sqrt(weights.mu[bs])
    for k in range(len(channels.f[bs])):
        w = mu * np.sqrt(weights.nu[bs][k])
        r_rows.append(w * _reduced_group_block(channels.g[bs], channels.f[bs][k], topology))
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


def _split_blocks(theta_stacked: np.ndarray, topology: RisTopology) -> list[np.ndarray]:
    n_bar = topology.d_bar * (topology.d_bar + 1) // 2
    return [
        unvech(theta_stacked[g * n_bar:(g + 1) * n_bar], topology.d_bar)
        for g in range(topology.g)
    ]


def _snap(values: np.ndarray, finite: np.ndarray, arc: CodewordArc,
          caps: np.ndarray) -> np.ndarray:
    """Nearest-codeword capacitances; ties resolve to the smallest capacitance.

    Distance is measured between branch ADMITTANCES (1/impedance), not raw
    impedances: the network matrix is assembled from branch admittances, so
    quantization error in admittance perturbs the realized reflection
    linearly, whereas raw impedance distance over-weights the weakly coupled
    (large-impedance) branches whose admittance barely matters.  Branches
    flagged non-finite are open circuits with zero admittance and therefore
    take the largest-impedance codeword.  The search runs along the codewords'
    ``arc`` and picks what an exhaustive search over all codewords would.
    """
    values = np.asarray(values)
    targets = np.zeros(values.shape, dtype=complex)
    targets[finite] = 1.0 / values[finite]
    return caps[arc.nearest(targets)]


def relaxed_block_branches(theta_block: np.ndarray, z0: float) -> BranchImpedances:
    """Branch impedances realizing one relaxed reflection block.

    Frequency independent: converts the block to its impedance matrix and
    retrieves the non-redundant self and inter-element branches.  Surfaces of
    one-element groups take the vectorized scalar map in
    :func:`bdris.experiments.solve_trials` instead.
    """
    z_star = impedance_from_scattering(theta_block, z0)
    return retrieve_branch_impedances(z_star)


def snap_to_codebook(branches: BranchImpedances, codebook: Codebook) -> np.ndarray:
    """Capacitance block whose branch impedances best match ``branches`` at the
    codebook frequency (nearest codeword per branch, admittance distance)."""
    d = branches.order
    caps = np.zeros((d, d))
    caps[np.diag_indices(d)] = _snap(branches.self_z, branches.self_finite,
                                     codebook.self_arc, codebook.self_caps)
    if d > 1:
        iu, ju = np.triu_indices(d, 1)
        c_inter = _snap(branches.inter_z[iu, ju], branches.inter_finite[iu, ju],
                        codebook.inter_arc, codebook.inter_caps)
        caps[iu, ju] = c_inter
        caps[ju, iu] = c_inter
    return caps
