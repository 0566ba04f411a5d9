#!/usr/bin/env python3
"""Configure one surface for a single fading draw and print what it achieves.

Walks the full pipeline once: sample channels, solve the relaxed problem,
map the solution onto hardware capacitances through the codebook, and compare
the resulting received power against a random-capacitance baseline and the
relaxed optimum.
"""

import numpy as np

from bdris.channel import NetworkScenario, PowerConfig, sample_channels, stream_rng
from bdris.circuit import (CapacitancePlan, RisTopology, build_codebook,
                           scattering_from_capacitances)
from bdris.config import DEFAULT_CONFIG, circuit_params
from bdris.experiments import solve_trials
from bdris.metrics import evaluate_received_powers
from bdris.optimizer import GroupAssignment, ObjectiveWeights, stack_factors, stack_fc

D = 64
F_STAR = 7.5e9
SELF_RANGE = (0.1e-12, 2.0e-12)
INTER_RANGE = (0.001e-12, 0.6e-12)


def main():
    params = circuit_params(DEFAULT_CONFIG)
    scenario = NetworkScenario(
        bs_positions=((0.0, 0.0),), user_positions=(((25.0, 10.0),),),
        ris_position=(40.0, 20.0), m=40, eta_direct=3.5, eta_reflected=2.5)
    power = PowerConfig(p=0.1, alpha=((1.0,),), noise=1e-7)
    weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))
    codebook = build_codebook(F_STAR, 6, SELF_RANGE, INTER_RANGE, params)
    channels = sample_channels(scenario, D, stream_rng(7, 0), direct=False)

    def report(label, theta):
        powers = evaluate_received_powers(channels, [np.conj(channels.f[0]) @ theta],
                                          power)
        print(f"  {label:34s} {powers[0][0] * 1e3:8.4f} mW")

    def configure(topo):
        """Relaxed solve, branch retrieval and codebook snap of one surface."""
        state = solve_trials([channels], weights, topo,
                             GroupAssignment.single(0, topo), params.z0)[0]
        return state, scattering_from_capacitances(state.plan({0: codebook}),
                                                   F_STAR, params)

    print(f"one fading draw, D = {D}, priority frequency {F_STAR / 1e9:.1f} GHz")
    theta = configure(RisTopology.fully_connected(D))[1]
    # the relaxed optimum ||R theta||^2 on the unit ball is the top eigenvalue of
    # the Gram matrix R R^H
    relaxed = np.linalg.eigvalsh(stack_fc(stack_factors(channels, weights, (0,)))[0])[-1]
    print(f"relaxed optimum (upper reference)    {relaxed * power.p * 1e3:8.4f} mW")
    report("fully-connected, configured", theta)
    report("group-connected (G=2), configured",
           configure(RisTopology.group_connected(D, 2))[1])
    report("single-connected, configured",
           configure(RisTopology.single_connected(D))[1])

    # uniform capacitances: every self branch, then the strict upper triangle
    # of a D x D draw for the inter-element branches
    rng = np.random.default_rng(0)
    self_c = rng.uniform(*SELF_RANGE, size=(1, D))
    inter_c = rng.uniform(*INTER_RANGE, size=(D, D))[np.triu_indices(D, 1)]
    report("random capacitances (baseline)", scattering_from_capacitances(
        CapacitancePlan(self_c, inter_c[None]), F_STAR, params))


if __name__ == "__main__":
    main()
