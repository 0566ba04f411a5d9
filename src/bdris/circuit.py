"""Frequency-dependent lumped-circuit reflection model.

Each reflecting element is grounded through a tunable resonant branch
(self impedance) and, depending on the architecture, connected to other
elements of its group through tunable varactor branches (inter-element
impedances).  The pipeline capacitances -> branch impedances -> A = I + z0 Y
-> scattering matrix 2 A^-1 - I (or just the user rows the metrics read) runs
here for fully-connected (one group), group-connected and single-connected
(one element per group) surfaces, never forming the impedance matrix.

All quantities are SI internally: Hz, farads, henries, ohms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import OpenCircuitError, SingularBranchError, SingularNetworkError
from .matrixkit import strict_upper_indices

# Inversions abort rather than return garbage past this conditioning: the
# exact 1-norm condition number ||A||_1 ||A^-1||_1, never below the estimate
# LAPACK's xGECON would give, so the guard is at least as strict as one.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class CircuitParams:
    """Fixed lumped-element values of the reflection hardware (SI units).

    ``r``, ``l0`` and ``l`` describe the grounded self branch (outer inductor
    ``l0`` in parallel with the series varactor path ``l`` + capacitor + ``r``);
    ``r_tilde``, ``l0_tilde``, ``l_tilde`` play the same roles in the
    inter-element branches.  ``z0`` is the reference impedance.
    """

    r: float
    l0: float
    l: float
    r_tilde: float
    l0_tilde: float
    l_tilde: float
    z0: float

    def __post_init__(self):
        if min(self.r, self.l, self.r_tilde, self.l_tilde) < 0:
            raise ValueError("resistances and inductances must be >= 0")
        if self.l0 <= 0 or self.l0_tilde <= 0:
            raise ValueError("shunt inductances must be > 0")
        if self.z0 <= 0:
            raise ValueError("reference impedance must be > 0")

    @classmethod
    def defaults(cls) -> "CircuitParams":
        """Reference hardware values used by the bundled experiments."""
        return cls(r=1.0, l0=2.5e-9, l=0.7e-9,
                   r_tilde=1.0, l0_tilde=12.5e-9, l_tilde=0.2e-9, z0=50.0)


@dataclass(frozen=True)
class RisTopology:
    """Element count ``d`` and group count ``g`` of a surface.

    ``g == 1`` is fully-connected, ``g == d`` single-connected, anything in
    between group-connected with ``d // g`` elements per group.
    """

    d: int
    g: int

    def __post_init__(self):
        if self.d < 1 or self.g < 1:
            raise ValueError("element and group counts must be >= 1")
        if self.d % self.g:
            raise ValueError(f"group count {self.g} must divide element count {self.d}")

    @property
    def d_bar(self) -> int:
        return self.d // self.g

    @property
    def architecture(self) -> str:
        if self.g == 1:
            return "fully-connected"
        if self.g == self.d:
            return "single-connected"
        return "group-connected"

    def group_slice(self, k: int) -> slice:
        if not 0 <= k < self.g:
            raise ValueError(f"group index {k} out of range for {self.g} groups")
        return slice(k * self.d_bar, (k + 1) * self.d_bar)

    @classmethod
    def fully_connected(cls, d: int) -> "RisTopology":
        return cls(d, 1)

    @classmethod
    def group_connected(cls, d: int, g: int) -> "RisTopology":
        return cls(d, g)

    @classmethod
    def single_connected(cls, d: int) -> "RisTopology":
        return cls(d, d)


def self_impedance(c, f: float, params: CircuitParams):
    """Impedance of the grounded self branch for capacitance ``c`` at frequency ``f``.

    Parallel combination of the shunt inductor ``l0`` with the series path
    ``l`` + capacitor + ``r``.  Accepts scalar or array capacitances.
    """
    return _resonant_branch(c, f, params.r, params.l0, params.l)


def inter_impedance(c, f: float, params: CircuitParams):
    """Impedance of an inter-element branch; same circuit with the tilde values."""
    return _resonant_branch(c, f, params.r_tilde, params.l0_tilde, params.l_tilde)


def _resonant_branch(c, f, r, l0, l):
    c = np.asarray(c, dtype=float)
    if np.any(c <= 0):
        raise ValueError("capacitance must be > 0")
    if f <= 0:
        raise ValueError("frequency must be > 0")
    jw = 2j * np.pi * f
    series = jw * l + 1.0 / (jw * c) + r
    z = (jw * l0) * series / (jw * l0 + series)
    return complex(z) if z.ndim == 0 else z


def admittance_matrix(self_z: np.ndarray, inter_z: np.ndarray | None = None,
                      inter_mask: np.ndarray | None = None) -> np.ndarray:
    """Admittance matrix of the branch network.

    Off-diagonal entries are -1/inter_z[p, q]; diagonal entries are
    1/self_z[p] plus the sum of the reciprocal inter-element impedances
    leaving port p.  ``inter_mask`` marks which off-diagonal branches exist
    (default: all of them when ``inter_z`` is given, none otherwise); absent
    branches contribute zero admittance.
    """
    self_z = np.atleast_1d(np.asarray(self_z, dtype=complex))
    d = self_z.size
    if np.any(self_z == 0):
        raise SingularBranchError("zero self impedance has undefined admittance")

    inv_inter = np.zeros((d, d), dtype=complex)
    if inter_z is not None and d > 1:
        inter_z = np.asarray(inter_z, dtype=complex)
        if inter_z.shape != (d, d):
            raise ValueError(f"inter impedance matrix must be {d}x{d}")
        if inter_mask is None:
            inter_mask = ~np.eye(d, dtype=bool)
        else:
            inter_mask = np.asarray(inter_mask, dtype=bool) & ~np.eye(d, dtype=bool)
        if not np.array_equal(inter_mask, inter_mask.T):
            raise ValueError("inter-element branch mask must be symmetric")
        if np.any(inter_z[inter_mask] != inter_z.T[inter_mask]):
            raise ValueError("inter-element impedances must be symmetric")
        if np.any(inter_z[inter_mask] == 0):
            raise SingularBranchError("zero inter-element impedance has undefined admittance")
        inv_inter[inter_mask] = 1.0 / inter_z[inter_mask]

    y = -inv_inter
    y[np.diag_indices(d)] = 1.0 / self_z + inv_inter.sum(axis=1)
    return y


def _inverse_guarded(a: np.ndarray, what: str) -> np.ndarray:
    """Inverse of ``a``, refused when its 1-norm condition exceeds CONDITION_LIMIT.

    rcond = 1 / (||a||_1 ||a^-1||_1) is exact, taken from the inverse itself.
    LAPACK's xGECON only estimates ||a^-1||_1 from below (Hager 1984;
    Higham 1988), so this guard is never looser than the estimated one.
    A (g, n, n) stack is inverted at once; its error names the first failing
    matrix as ``group k``.
    """
    a = np.asarray(a, dtype=complex)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:  # some matrix is exactly singular: find which
        inv = np.full_like(a, np.inf)
        for i in np.ndindex(a.shape[:-2]):
            try:
                inv[i] = np.linalg.inv(a[i])
            except np.linalg.LinAlgError:
                pass
    # divided in turn, as xGECON does, so a huge product cannot overflow;
    # a zero matrix gives 0/0 = NaN, which fails as well
    with np.errstate(invalid="ignore"):
        rcond = np.ravel(1.0 / np.linalg.norm(inv, 1, axis=(-2, -1))
                         / np.linalg.norm(a, 1, axis=(-2, -1)))
    ok = rcond >= 1.0 / CONDITION_LIMIT  # NaN fails too
    if not ok.all():
        k = int(np.argmin(ok))
        where = f"group {k}: " if a.ndim == 3 else ""
        raise SingularNetworkError(
            f"{where}{what} is singular or ill-conditioned (rcond={rcond[k]:.2e})")
    return inv


def _require_symmetric(a: np.ndarray, what: str, tol: float = 1e-8):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > tol * scale:
        raise ValueError(f"{what} must be symmetric")


def scattering_from_impedance(z: np.ndarray, z0: float) -> np.ndarray:
    """Scattering matrix (Z + z0 I)^-1 (Z - z0 I) of a reciprocal network.

    Computed as I - 2 z0 (Z + z0 I)^-1, the same matrix from one inverse.
    """
    z = np.asarray(z, dtype=complex)
    _require_symmetric(z, "impedance matrix")
    eye = np.eye(z.shape[0])
    theta = eye - 2.0 * z0 * _inverse_guarded(z + z0 * eye, "Z + z0*I")
    return 0.5 * (theta + theta.T)


def impedance_from_scattering(theta: np.ndarray, z0: float) -> np.ndarray:
    """Impedance matrix z0 (I + Theta)(I - Theta)^-1 realizing a reflection matrix.

    Computed as z0 (2 (I - Theta)^-1 - I), the same matrix from one inverse.
    Raises :class:`OpenCircuitError` when (I - Theta) is singular (a unit
    eigenvalue corresponds to an open-circuit port with no finite impedance).
    """
    theta = np.asarray(theta, dtype=complex)
    _require_symmetric(theta, "scattering matrix")
    eye = np.eye(theta.shape[0])
    try:
        z = z0 * (2.0 * _inverse_guarded(eye - theta, "I - Theta") - eye)
    except SingularNetworkError as exc:
        raise OpenCircuitError(str(exc)) from exc
    return 0.5 * (z + z.T)


class CodewordArc(NamedTuple):
    """The circle (or, lossless, the line) through one branch list's codeword
    admittances.  Distance from any point to a codeword grows with the gap in
    key: the angle about the centre, or the coordinate along the line."""

    y: np.ndarray       # codeword admittances, in codebook order
    centre: complex     # circle centre, or the line's first codeword
    axis: complex       # 0 for a circle, else the line's unit direction
    keys: np.ndarray    # codeword keys, sorted
    ring: np.ndarray    # (n + 1, 4): row p holds the codewords at sorted keys
    ring_y: np.ndarray  # p - 2 .. p + 1, wrapped round a circle, inf off a line's ends

    def nearest(self, targets: np.ndarray) -> np.ndarray:
        """Index of the codeword nearest each target admittance, the same as
        ``np.abs(targets[:, None] - y).argmin(axis=1)``, ties included.

        Only the two codewords whose keys bracket a target's can be nearest;
        they are compared by that exact distance.  When the next codeword out
        on either side is within 1e-12 relative as near, rounding could tie a
        third codeword (a target far off, near a circle's centre, or NaN), and
        the target takes the exhaustive argmin instead.
        """
        if targets.size == 0:  # e.g. a single-connected surface's inter branches
            return np.zeros(0, dtype=np.intp)
        pos = np.searchsorted(self.keys, _arc_key(targets, self.centre, self.axis))
        _, lo, hi, _ = self.ring.take(pos, axis=0).T
        d_out1, d_lo, d_hi, d_out2 = np.abs(targets[:, None] - self.ring_y.take(pos, axis=0)).T
        pick = np.where((d_hi < d_lo) | ((d_hi == d_lo) & (hi < lo)), hi, lo)
        unsure = ~(np.minimum(d_out1, d_out2) > np.minimum(d_lo, d_hi) * (1 + 1e-12))
        pick[unsure] = np.abs(targets[unsure, None] - self.y).argmin(axis=1)
        return pick


def _arc_key(y: np.ndarray, centre: complex, axis: complex) -> np.ndarray:
    return np.angle(y - centre) if axis == 0 else ((y - centre) * np.conj(axis)).real


def _fit_arc(z: np.ndarray) -> CodewordArc:
    """The line through the first and last codeword admittances if all lie on
    it within 1e-9 of their extent (a huge circle's angles lose precision),
    else the circle through the first, middle and last if all lie on it
    within 1e-9 of its radius."""
    y = 1.0 / z
    a, u, v = y[0], y[y.size // 2] - y[0], y[-1] - y[0]
    centre, axis = a, v / abs(v) if v else 1.0
    if not np.all(np.abs(((y - a) * np.conj(axis)).imag) <= 1e-9 * np.abs(y - a).max()):
        cross = (np.conj(u) * v).imag
        centre = a + 1j * (abs(v) ** 2 * u - abs(u) ** 2 * v) / (2 * cross) if cross else np.nan
        axis, radius = 0, abs(a - centre)
        if not np.all(np.abs(np.abs(y - centre) - radius) <= 1e-9 * radius):
            raise ValueError("codeword admittances do not lie on one circle or line")
    keys = _arc_key(y, centre, axis)
    order = np.argsort(keys, kind="stable")
    at = np.arange(y.size + 1)[:, None] + np.arange(-2, 2)  # positions in key order
    ring = order[at % y.size]
    ring_y = y[ring]
    if axis != 0:  # a line does not wrap round
        ring_y[(at < 0) | (at >= y.size)] = np.inf
    return CodewordArc(y, centre, axis, keys[order], ring, ring_y)


@dataclass(frozen=True)
class Codebook:
    """Realizable (capacitance, impedance) pairs at one frequency.

    Capacitances are strictly increasing; impedances are the branch values
    those capacitances produce at ``frequency``; the arcs are fitted to them.
    """

    frequency: float
    self_caps: np.ndarray
    self_z: np.ndarray
    inter_caps: np.ndarray
    inter_z: np.ndarray
    self_arc: CodewordArc = field(init=False, repr=False, compare=False)
    inter_arc: CodewordArc = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for kind in ("self", "inter"):
            caps, z = getattr(self, f"{kind}_caps"), getattr(self, f"{kind}_z")
            if np.shape(caps) != np.shape(z):
                raise ValueError(f"{kind} capacitances and impedances differ in length")
            if not np.all(np.diff(caps) > 0):
                raise ValueError(f"{kind} capacitances must be strictly increasing")
            object.__setattr__(self, f"{kind}_arc", _fit_arc(z))

    def __len__(self) -> int:
        return self.self_caps.size


def build_codebook(f: float, bits: int, self_range: tuple[float, float],
                   inter_range: tuple[float, float], params: CircuitParams) -> Codebook:
    """Uniformly spaced capacitance codebooks and their impedances at ``f``."""
    if bits < 1:
        raise ValueError("codebook needs at least one quantization bit")
    for lo, hi in (self_range, inter_range):
        if not 0 < lo < hi:
            raise ValueError(f"capacitance range must be positive and increasing, got ({lo}, {hi})")
    n = 2 ** bits
    self_caps = np.linspace(self_range[0], self_range[1], n)
    inter_caps = np.linspace(inter_range[0], inter_range[1], n)
    return Codebook(
        frequency=f,
        self_caps=self_caps,
        self_z=self_impedance(self_caps, f, params),
        inter_caps=inter_caps,
        inter_z=inter_impedance(inter_caps, f, params),
    )


@dataclass(frozen=True)
class CapacitancePlan:
    """Symmetric matrix of tunable capacitances for one surface.

    Diagonal entries drive the self branches, off-diagonal entries the
    inter-element branches.  Entries outside the blocks of ``topology`` are
    absent branches and are ignored by the circuit.
    """

    c: np.ndarray
    topology: RisTopology

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.topology.d, self.topology.d):
            raise ValueError(f"capacitance matrix must be {self.topology.d}x{self.topology.d}")
        if not np.array_equal(c, c.T):
            raise ValueError("capacitance matrix must be symmetric")
        object.__setattr__(self, "c", c)


def random_plan(topology: RisTopology, self_range: tuple[float, float],
                inter_range: tuple[float, float], rng: np.random.Generator) -> CapacitancePlan:
    """Capacitances drawn uniformly within the tunable ranges (baseline plans)."""
    d = topology.d
    c = np.zeros((d, d))
    c[np.diag_indices(d)] = rng.uniform(*self_range, size=d)
    for k in range(topology.g):
        sl = topology.group_slice(k)
        d_bar = topology.d_bar
        block = rng.uniform(*inter_range, size=(d_bar, d_bar))
        block = np.triu(block, 1)
        c[sl, sl] += block + block.T
    return CapacitancePlan(c, topology)


def _network_matrices(plan: CapacitancePlan, f: float, params: CircuitParams) -> np.ndarray:
    """(g, d_bar, d_bar) stack of every group's A = I + z0 Y at ``f``, from its branches."""
    g, n = plan.topology.g, plan.topology.d_bar
    blocks = plan.c.reshape(g, n, g, n)[np.arange(g), :, np.arange(g)]
    ii, (iu, ju) = np.arange(n), strict_upper_indices(n)
    self_z = self_impedance(blocks[:, ii, ii], f, params)
    inter_z = inter_impedance(blocks[:, iu, ju], f, params)
    zero = (self_z == 0).any(axis=1) | (inter_z == 0).any(axis=1)
    if zero.any():
        raise SingularBranchError(f"group {zero.argmax()}: zero branch impedance")
    a = np.zeros((g, n, n), dtype=complex)
    a[:, iu, ju] = a[:, ju, iu] = -params.z0 / inter_z
    a[:, ii, ii] = 1.0 + params.z0 / self_z - a.sum(axis=2)
    return a


def scattering_from_capacitances(plan: CapacitancePlan, f: float, params: CircuitParams,
                                 left: np.ndarray | None = None) -> np.ndarray:
    """Scattering matrix Theta of a capacitance plan at frequency ``f``, or with
    ``left`` (D, K) only the rows left^T Theta the metrics read.

    Theta is block-diagonal with symmetric blocks 2 A^-1 - I, A = I + z0 Y
    (:func:`_network_matrices`), without forming Z = Y^-1, so a singular Y
    (open self branches) is no error.  Each group takes one solve with K
    right-hand sides, never an inverse: left^T Theta = 2 (A^-1 left)^T - left^T
    (``left=None``: the identity).  R, R~ >= 0 give every branch Re y >= 0, so
    Herm(A) = I + z0 Re Y >= I, sigma_min(A) >= 1 and ||A^-1||_1 <= sqrt(n):
    the O(n^2) bound 1 / (sqrt(n) ||A||_1) never exceeds the exact rcond, and
    refusing below 1 / CONDITION_LIMIT (or a non-finite solve) is never looser
    than :func:`_inverse_guarded`.  The error names the first failing group.
    """
    topo = plan.topology
    g, n = topo.g, topo.d_bar
    left = np.eye(topo.d) if left is None else left
    if n == 1:
        # Every port only has its self branch: the network is a stack of
        # decoupled one-ports with reflection (z - z0) / (z + z0).
        z = self_impedance(np.diag(plan.c), f, params)
        return left.T * ((z - params.z0) / (z + params.z0))
    a, rhs = _network_matrices(plan, f, params), left.reshape(g, n, -1)
    rcond = 1.0 / (np.sqrt(n) * np.linalg.norm(a, 1, axis=(-2, -1)))
    ok = rcond >= 1.0 / CONDITION_LIMIT  # NaN fails too
    if ok.all():
        x = np.linalg.solve(a, rhs)
        ok = np.isfinite(x).all(axis=(-2, -1))
    if not ok.all():
        k = int(np.argmin(ok))
        raise SingularNetworkError(
            f"group {k}: I + z0*Y is singular or ill-conditioned (rcond={rcond[k]:.2e})")
    return (2.0 * x - rhs).transpose(2, 0, 1).reshape(-1, topo.d)
