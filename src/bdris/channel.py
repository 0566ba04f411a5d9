"""Network geometry, Rayleigh fading channel generation, and zero-forcing precoding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError

ZF_RANK_THRESHOLD = 1e-10


@dataclass(frozen=True)
class NetworkScenario:
    """Geometry and path-loss exponents of the multi-band downlink network: what
    a fading draw reads.

    ``user_positions[b]`` lists the single-antenna users served by base
    station ``b``.  Path gains follow distance power laws with exponent
    ``eta_direct`` on the direct links and ``eta_reflected`` on both segments
    of the reflected link.  Operating frequencies are not part of it: the
    Rayleigh draws do not depend on them.
    """

    bs_positions: tuple[tuple[float, float], ...]
    user_positions: tuple[tuple[tuple[float, float], ...], ...]
    ris_position: tuple[float, float]
    m: int
    eta_direct: float
    eta_reflected: float

    def __post_init__(self):
        if len(self.user_positions) != len(self.bs_positions):
            raise ValueError("need one user list per base station")
        if any(k < 1 for k in self.users_per_bs):
            raise ValueError("every base station needs at least one user")
        if self.m < 1:
            raise ValueError("antenna count must be >= 1")
        if self.eta_direct <= 0 or self.eta_reflected <= 0:
            raise ValueError("path-loss exponents must be > 0")
        coords = [self.ris_position, *self.bs_positions]
        for users in self.user_positions:
            coords.extend(users)
        if not np.all(np.isfinite(np.asarray(coords, dtype=float))):
            raise ValueError("all positions must be finite")

    @property
    def num_bs(self) -> int:
        return len(self.bs_positions)

    @property
    def users_per_bs(self) -> tuple[int, ...]:
        return tuple(len(u) for u in self.user_positions)

    def bs_ris_distance(self, b: int) -> float:
        return _dist(self.bs_positions[b], self.ris_position)

    def ris_user_distance(self, b: int, k: int) -> float:
        return _dist(self.ris_position, self.user_positions[b][k])

    def bs_user_distance(self, b: int, k: int) -> float:
        return _dist(self.bs_positions[b], self.user_positions[b][k])


def _dist(p: tuple[float, float], q: tuple[float, float]) -> float:
    return float(np.hypot(p[0] - q[0], p[1] - q[1]))


@dataclass(frozen=True)
class PowerConfig:
    """Transmit power budget, per-user power fractions, and noise variance (watts)."""

    p: float
    alpha: tuple[tuple[float, ...], ...]
    noise: float

    def __post_init__(self):
        if self.p <= 0 or self.noise <= 0:
            raise ValueError("power budget and noise variance must be > 0")
        for fractions in self.alpha:
            if any(a < 0 for a in fractions):
                raise ValueError("power fractions must be >= 0")
            if sum(fractions) > 1 + 1e-12:
                raise ValueError("power fractions at a base station must sum to <= 1")


def path_gain(distance: float, exponent: float) -> float:
    """Distance power-law gain d^-exponent; ValueError unless d > 0 and it is finite."""
    if distance <= 0:
        raise ValueError("distance must be > 0")
    try:
        return float(distance) ** -exponent
    except OverflowError:
        raise ValueError(f"the path gain at distance {distance} overflows") from None


@dataclass(frozen=True)
class ChannelSet:
    """One fading realization: per-BS RIS channels and per-user vectors.

    ``g[b]`` is the (D, M) BS-to-RIS matrix, ``f[b][k]`` the (D,) RIS-to-user
    vector, ``h[b][k]`` the (M,) direct BS-to-user vector (exactly zero when
    direct links are blocked).  Path gains are baked into the entries.
    """

    g: tuple[np.ndarray, ...]
    f: tuple[tuple[np.ndarray, ...], ...]
    h: tuple[tuple[np.ndarray, ...], ...]


def stream_rng(master_seed: int, trial: int, attempt: int = 0) -> np.random.Generator:
    """Deterministic per-(trial, attempt) random stream, seeded with
    ``[master_seed, trial, 0, attempt]``: a third entry other than 0 gives a
    stream no run draws from."""
    return np.random.default_rng([int(master_seed), int(trial), 0, int(attempt)])


def _crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_channels(scenario: NetworkScenario, d: int, rng: np.random.Generator,
                    direct: bool) -> ChannelSet:
    """Draw one i.i.d. Rayleigh realization of every link, scaled by its path gain.

    Draw order is fixed: every base station's RIS matrix and RIS-to-user
    vectors first, then (only when ``direct``, i.e. the direct links are
    available) every direct vector; blocked direct links are exactly zero.
    The two link modes therefore share the reflected-link draws of a stream.
    """
    g, f = [], []
    for b in range(scenario.num_bs):
        gain_g = path_gain(scenario.bs_ris_distance(b), scenario.eta_reflected)
        g.append(_crandn(rng, d, scenario.m) * np.sqrt(gain_g))
        f_b = []
        for k in range(scenario.users_per_bs[b]):
            gain_f = path_gain(scenario.ris_user_distance(b, k), scenario.eta_reflected)
            f_b.append(_crandn(rng, d) * np.sqrt(gain_f))
        f.append(tuple(f_b))
    h = []
    for b in range(scenario.num_bs):
        h_b = []
        for k in range(scenario.users_per_bs[b]):
            if direct:
                gain_h = path_gain(scenario.bs_user_distance(b, k), scenario.eta_direct)
                h_b.append(_crandn(rng, scenario.m) * np.sqrt(gain_h))
            else:
                h_b.append(np.zeros(scenario.m, dtype=complex))
        h.append(tuple(h_b))
    return ChannelSet(g=tuple(g), f=tuple(f), h=tuple(h))


def effective_from_rows(channels: ChannelSet, b: int, rows: np.ndarray) -> np.ndarray:
    """Effective channel rows e_k^H = f_k^H Theta G + h_k^H of base station b's
    users, from their reflected user rows ``rows`` = F_b^H Theta, where
    F_b^H = ``np.conj(channels.f[b])`` stacks the rows f_k^H."""
    return rows @ channels.g[b] + np.conj(channels.h[b])


def zf_precoder(effective: np.ndarray) -> np.ndarray:
    """Unit-norm zero-forcing precoders for stacked effective channel rows.

    Returns an (M, K) matrix whose column u satisfies e_k^H p_u = 0 for every
    k != u.  Built from the pseudo-inverse of the channel matrix; raises
    :class:`DegenerateChannelError` when the rows are (numerically) rank
    deficient so the caller can redraw the fading.
    """
    effective = np.asarray(effective, dtype=complex)
    k, m = effective.shape
    if k > m:
        raise ValueError("cannot zero-force more users than antennas")
    u, s, vh = np.linalg.svd(effective, full_matrices=False)
    if s[0] == 0 or s[-1] / s[0] < ZF_RANK_THRESHOLD:
        raise DegenerateChannelError("effective channel matrix is rank deficient")
    pinv = (vh.conj().T / s) @ u.conj().T
    return pinv / np.linalg.norm(pinv, axis=0, keepdims=True)
