"""Capacitance plans written as one symmetric D x D matrix, for tests.

The package holds a plan as its branch capacitances: self (g, d_bar) and
inter-element (g, d_bar (d_bar - 1) / 2), each group's strict upper triangle
row by row.  Tests that state a plan as a matrix, whose diagonal blocks hold
the groups' branches, convert it here and back.
"""

import numpy as np

from bdris.circuit import CapacitancePlan


def plan_from_matrix(c, topology):
    """Plan of the diagonal blocks of the symmetric matrix ``c``; entries
    outside them are absent branches and are dropped."""
    c = np.asarray(c, dtype=float)
    assert c.shape == (topology.d, topology.d) and np.array_equal(c, c.T)
    n = topology.d_bar
    blocks = np.stack([c[topology.group_slice(k), topology.group_slice(k)]
                       for k in range(topology.g)])
    iu, ju = np.triu_indices(n, 1)
    return CapacitancePlan(blocks[:, np.arange(n), np.arange(n)], blocks[:, iu, ju])


def plan_matrix(plan):
    """The symmetric D x D matrix of ``plan``, zero outside its groups' blocks."""
    topo = plan.topology
    n = topo.d_bar
    c = np.zeros((topo.d, topo.d))
    iu, ju = np.triu_indices(n, 1)
    for k in range(topo.g):
        block = c[topo.group_slice(k), topo.group_slice(k)]  # a view into c
        block[np.arange(n), np.arange(n)] = plan.self_c[k]
        block[iu, ju] = block[ju, iu] = plan.inter_c[k]
    return c
