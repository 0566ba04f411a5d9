"""The reduced stacked matrix R, built the paper's way for tests.

The package never forms R: its solvers work from the Gram matrix R R^H and
the adjoint R^H c, both computed from the channels.  Tests build R here from
``np.kron`` and ``duplication_matrix`` as an independent reference.
"""

import numpy as np

from bdris.circuit import RisTopology
from bdris.matrixkit import duplication_matrix
from bdris.optimizer import frank_wolfe_batch


def reduced_stack(channels, weights, topology=None, bs=None):
    """(R, h) of a sub-problem: every base station's users on a
    fully-connected surface (``bs=None``), or base station ``bs``'s users on
    ``topology``.  Each user k contributes the rows
    w_k (g^T kron f_k^H) D_{d_bar}, one group after another; zero-weight users
    are left out."""
    topology = topology or RisTopology.fully_connected(channels.num_ris_elements)
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
                for sl in map(topology.group_slice, range(topology.g))]))
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
