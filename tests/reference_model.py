"""Reference formulas the tests check the package against.

The package ships only what a run executes.  The textbook forms it never
evaluates (vectorization maps, the duplication matrix, the impedance
matrix, the reduced stacked matrix R, D x D capacitance matrices) are
stated here once each, as bare formulas with no input guards.
"""

import numpy as np

from bdris.channel import ChannelSet, PowerConfig
from bdris.circuit import CapacitancePlan, CircuitParams, RisTopology
from bdris.optimizer import ObjectiveWeights, frank_wolfe_batch

# The default circuit with both resistances zero.
LOSSLESS = CircuitParams(r=0.0, l0=2.5e-9, l=0.7e-9, r_tilde=0.0, l0_tilde=12.5e-9,
                         l_tilde=0.2e-9, z0=50.0)


def crandn(rng, *shape):
    """Circularly-symmetric complex Gaussian entries of unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_channels(rng, d, m, users_per_bs, direct=False, scales=None):
    """Synthetic unit-variance channel set; per-BS scale factors optional."""
    g, f, h = [], [], []
    for b, k_b in enumerate(users_per_bs):
        s = 1.0 if scales is None else scales[b]
        g.append(s * crandn(rng, d, m))
        f.append(tuple(crandn(rng, d) for _ in range(k_b)))
        h.append(tuple(crandn(rng, m) if direct else np.zeros(m, dtype=complex)
                       for _ in range(k_b)))
    return ChannelSet(g=tuple(g), f=tuple(f), h=tuple(h))


def relaxed_objective(r, h, theta):
    return np.linalg.norm(r @ theta + h) ** 2


def vec(a):
    """The columns of ``a`` stacked (column-major)."""
    return np.ravel(a, order="F")


def unvec(v, rows, cols):
    return np.reshape(v, (rows, cols), order="F")


def vech(a):
    """The lower triangle of ``a``, column by column: entries (i, j), i >= j."""
    return a.T[np.triu_indices(len(a))]


def unvech(theta, d):
    """The symmetric d x d matrix whose vech is ``theta``."""
    a = np.zeros((d, d), dtype=complex)
    a.T[np.triu_indices(d)] = theta
    return a + np.tril(a, -1).T


def duplication_matrix(d):
    """D_d (d^2 x d(d+1)/2), with D_d vech(A) = vec(A) for symmetric A: column
    k holds ones at the vec positions of (i, j) and (j, i)."""
    j, i = np.triu_indices(d)
    k = np.arange(i.size)
    dup = np.zeros((d * d, i.size))
    dup[j * d + i, k] = dup[i * d + j, k] = 1.0
    return dup


def group_slice(topology, k):
    """The elements of group k."""
    return slice(k * topology.d_bar, (k + 1) * topology.d_bar)


def admittance_matrix(self_z, inter_z=None):
    """Y of a branch network: -1 / inter_z[p, q] off the diagonal; on it,
    1 / self_z[p] plus the reciprocal inter-element impedances at port p."""
    d = len(self_z)
    y = np.zeros((d, d), dtype=complex)
    if inter_z is not None:
        off = ~np.eye(d, dtype=bool)
        y[off] = -1.0 / np.asarray(inter_z)[off]
    return y + np.diag(1.0 / np.asarray(self_z) - y.sum(axis=1))


def scattering_from_impedance(z, z0):
    """(Z + z0 I)^-1 (Z - z0 I), written I - 2 z0 (Z + z0 I)^-1."""
    eye = np.eye(len(z))
    return eye - 2.0 * z0 * np.linalg.inv(z + z0 * eye)


def impedance_from_scattering(theta, z0):
    """z0 (I + Theta)(I - Theta)^-1, written z0 (2 (I - Theta)^-1 - I)."""
    eye = np.eye(len(theta))
    return z0 * (2.0 * np.linalg.inv(eye - theta) - eye)


def effective_channels(channels, b, theta):
    """Rows e_k^H = f_k^H Theta G + h_k^H of base station b's users."""
    return np.conj(channels.f[b]) @ theta @ channels.g[b] + np.conj(channels.h[b])


def uniform_weights(users_per_bs):
    """Every base station weighted 1, its users equally."""
    return ObjectiveWeights(mu=(1.0,) * len(users_per_bs),
                            nu=tuple((1.0 / k,) * k for k in users_per_bs))


def uniform_power(scenario, p, noise):
    """Budget ``p`` split equally among each base station's users."""
    return PowerConfig(p, tuple((1.0 / k,) * k for k in scenario.users_per_bs), noise)


def row(rows, value, architecture, metric):
    """The one row of ``rows`` at (value, architecture, metric)."""
    (hit,) = [r for r in rows
              if (r.value, r.architecture, r.metric) == (value, architecture, metric)]
    return hit


def curve(rows, architecture, metric):
    """(grid values, means, stderrs) of one curve of ``rows``, in row order."""
    hits = [r for r in rows if (r.architecture, r.metric) == (architecture, metric)]
    return (np.array([r.value for r in hits]), np.array([r.mean for r in hits]),
            np.array([r.stderr for r in hits]))


def capacitance_plan(self_c, inter_c):
    """Plan of arbitrary branch capacitances, the (g, d_bar) self values and the
    (g, d_bar (d_bar - 1) / 2) inter-element ones: each branch type's values
    are its table, and each branch indexes its own entry."""
    self_c, inter_c = np.asarray(self_c, dtype=float), np.asarray(inter_c, dtype=float)
    return CapacitancePlan(self_c.ravel(), np.arange(self_c.size).reshape(self_c.shape),
                           inter_c.ravel(), np.arange(inter_c.size).reshape(inter_c.shape))


def plan_capacitances(plan):
    """(self_c, inter_c): the capacitance of every branch of ``plan``, in
    the layout of :func:`capacitance_plan`."""
    return plan.self_caps[plan.self_index], plan.inter_caps[plan.inter_index]


def random_plan(topology, self_range, inter_range, rng):
    """Capacitances uniform within the tunable ranges: every self value first,
    then per group the strict upper triangle of a (d_bar, d_bar) draw."""
    g, n = topology.g, topology.d_bar
    self_c = rng.uniform(*self_range, size=(g, n))
    iu, ju = np.triu_indices(n, 1)
    return capacitance_plan(self_c, [rng.uniform(*inter_range, size=(n, n))[iu, ju]
                                     for _ in range(g)])


def plan_from_matrix(c, topology):
    """Plan of the diagonal blocks of the symmetric D x D matrix ``c``; entries
    outside them are absent branches and are dropped."""
    c = np.asarray(c, dtype=float)
    assert c.shape == (topology.d, topology.d) and np.array_equal(c, c.T)
    n = topology.d_bar
    blocks = np.stack([c[group_slice(topology, k), group_slice(topology, k)]
                       for k in range(topology.g)])
    iu, ju = np.triu_indices(n, 1)
    return capacitance_plan(blocks[:, np.arange(n), np.arange(n)], blocks[:, iu, ju])


def plan_matrix(plan):
    """The symmetric D x D matrix of ``plan``, zero outside its groups' blocks."""
    self_c, inter_c = plan_capacitances(plan)
    g, n = self_c.shape
    topo = RisTopology(g * n, g)
    c = np.zeros((topo.d, topo.d))
    iu, ju = np.triu_indices(n, 1)
    for k in range(g):
        block = c[group_slice(topo, k), group_slice(topo, k)]  # a view into c
        block[np.arange(n), np.arange(n)] = self_c[k]
        block[iu, ju] = block[ju, iu] = inter_c[k]
    return c


def reduced_stack(channels, weights, topology=None, bs=None):
    """(R, h) of a sub-problem: every base station's users on a
    fully-connected surface (``bs=None``), or base station ``bs``'s users on
    ``topology``.  Each user k contributes the rows
    w_k (g^T kron f_k^H) D_{d_bar}, one group after another; zero-weight users
    are left out.  The package never forms R: its solvers work from R R^H."""
    topology = topology or RisTopology.fully_connected(len(channels.g[0]))
    bss = range(len(channels.g)) if bs is None else (bs,)
    dup = duplication_matrix(topology.d_bar)
    r_rows, h_rows = [], []
    for b in bss:
        g = channels.g[b]
        for k, f in enumerate(channels.f[b]):
            w = weights.factor(b, k)
            if w == 0.0:
                continue
            r_rows.append(w * np.hstack([
                np.kron(g[sl].T, f[sl].conj()[None, :]) @ dup
                for sl in (group_slice(topology, j) for j in range(topology.g))]))
            h_rows.append(w * channels.h[b][k].conj())
    return np.vstack(r_rows), np.concatenate(h_rows)


def frank_wolfe(r, h, radius, iterations):
    """Conditional-gradient ascent of ||r theta + h||^2 over ||theta|| <= radius
    for one instance given by R itself: ``frank_wolfe_batch`` on a batch of one.
    Returns theta and its objective."""
    acc, c = frank_wolfe_batch((r @ r.conj().T)[None], h[None], radius, iterations,
                               r[None, :, 0])
    theta = r.conj().T @ acc[0]
    theta[0] += c[0]
    return theta, float(np.linalg.norm(r @ theta + h) ** 2)
