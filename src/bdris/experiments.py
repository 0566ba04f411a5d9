"""Named experiments: frequency response, target shifts, power sweeps, interference.

This module holds the Monte Carlo engine.  :func:`solve_trials` is the one
configuration pipeline, public as ``bdris.solve_trials``: relaxed solve,
branch retrieval, and a :class:`TrialState` that snaps to any codebook set.
Every experiment runs each of its grid points through :func:`_run_point`, the
one trial loop: it draws per-trial fading on deterministic substreams, solves
the relaxed problem with :func:`solve_trials`, hands the frequency-independent
solution to the experiment's ``evaluate`` (codebook projection, scattering,
metrics), and redraws degenerate draws against one budget.  The experiment
then aggregates mean and standard error per grid point.  The relaxed solve is done once per
trial, outside any frequency loop, from each sub-problem's Gram matrix;
conditional-gradient solves are batched over trials *and* priority base
stations in memory-bounded chunks, one solver call per chunk when the base
stations' Gram matrices share a size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .channel import (AVAILABLE, BLOCKED, NetworkScenario, sample_channels,
                      stream_rng)
from .circuit import CapacitancePlan, Codebook, RisTopology, build_codebook, \
    scattering_from_capacitances
from .config import cap_ranges, circuit_params, ghz, power_config, \
    base_scenario, single_user_scenario
from .errors import DegenerateChannelError
from .matrixkit import _canonical_phase, leading_right_singular_vector, vech_indices
from .metrics import (AggregateResult, ResultRow, aggregate, evaluate_received_powers,
                      network_sum_power, sum_power_per_bs,
                      sum_spectral_efficiency_outdated)
# _snap is not called here; the traced benchmark wraps it by name (ROADMAP item 1).
from .optimizer import (FwConfig, GroupAssignment, ObjectiveWeights, _snap,
                        first_column, frank_wolfe_batch, reduced_adjoint,
                        relaxed_block_branches, snap_to_codebook, stack_factors,
                        stack_fc, stack_gc)

logger = logging.getLogger(__name__)

# A grid point aborts once more than this fraction of its trials hit
# degenerate fading draws (each degenerate draw is redrawn and logged).
MAX_DEGENERATE_FRACTION = 0.01

# Working-memory budget for batching conditional-gradient solves over trials.
BATCH_BYTES = 250_000_000


def topology_for(architecture: str, d: int, group_count: int) -> RisTopology:
    if architecture == "fully-connected":
        return RisTopology.fully_connected(d)
    if architecture == "group-connected":
        return RisTopology.group_connected(d, group_count)
    if architecture == "single-connected":
        return RisTopology.single_connected(d)
    raise ValueError(f"unknown architecture {architecture!r}")


def priority_assignment(weights: ObjectiveWeights,
                        topology: RisTopology) -> GroupAssignment:
    """Dedicate the groups to the positive-weight base stations, evenly split.

    With a single positive-weight base station every group serves it; with
    several, contiguous group subsets are assigned in base-station order.
    """
    priority = tuple(b for b, mu in enumerate(weights.mu) if mu > 0)
    return GroupAssignment.even_split(priority, topology)


def fc_target_bs(weights: ObjectiveWeights, frequencies: tuple[float, ...],
                 preferred: float) -> int:
    """Base station whose frequency the fully-connected codebook targets.

    The preferred target is kept as long as its base station carries positive
    weight; otherwise the highest-weight base station is targeted.
    """
    diffs = [abs(f - preferred) for f in frequencies]
    idx = int(np.argmin(diffs))
    if weights.mu[idx] > 0:
        return idx
    return int(np.argmax(weights.mu))


@dataclass
class TrialState:
    """Frequency-independent part of one trial's configuration.

    ``thetas`` maps each priority base station to its relaxed stacked
    solution: vech of each group's block, one group after another (for a
    fully-connected surface, vech(Theta)).  ``owner[k]`` is the priority base
    station of group k, and ``self_y`` (g, d_bar) and ``inter_y``
    (g, d_bar (d_bar - 1) / 2) hold the relaxed branch admittances of every
    group (see :func:`relaxed_block_branches`), so plans snap cheaply
    against any codebook set.
    """

    topo: RisTopology
    owner: np.ndarray
    thetas: dict[int, np.ndarray]
    self_y: np.ndarray
    inter_y: np.ndarray

    def plan(self, codebooks: dict[int, Codebook]) -> CapacitancePlan:
        """Capacitance plan snapping each group onto its priority base
        station's codebook in ``codebooks``."""
        g, n = self.topo.g, self.topo.d_bar
        caps = np.zeros((g, n, g, n))  # caps[k, :, k] is group k's block
        for bs in set(self.owner.tolist()):  # np.unique imports numpy.ma: 1 MiB of RSS
            k = np.flatnonzero(self.owner == bs)
            caps[k, :, k] = snap_to_codebook(self.self_y[k], self.inter_y[k],
                                             codebooks[bs])
        return CapacitancePlan(caps.reshape(self.topo.d, self.topo.d), self.topo)


def _stacks(chans, weights: ObjectiveWeights, topo: RisTopology,
            assignment: GroupAssignment) -> dict[int, tuple]:
    """(Gram matrix, direct vector, row factors) per priority base station: one
    sub-problem over every user if fully connected, else one over its users."""
    if topo.g == 1:
        return {assignment.bs[0]: (*stack_fc(chans, weights),
                                   stack_factors(chans, weights, range(len(chans.g))))}
    return {bs: (*stack_gc(chans, weights, topo, bs), stack_factors(chans, weights, (bs,)))
            for bs in assignment.bs}


def _state_from_thetas(thetas: dict[int, np.ndarray], topo: RisTopology,
                       assignment: GroupAssignment, z0: float) -> TrialState:
    """Trial state of the relaxed stacked solutions ``thetas`` (kept, not copied).

    Each group's block is taken from its priority base station's solution;
    all blocks then retrieve their branches in one
    :func:`relaxed_block_branches` call.
    """
    g, n = topo.g, topo.d_bar
    owner = np.zeros(g, dtype=int)
    blocks = np.zeros((g, n, n), dtype=complex)
    rows, cols = vech_indices(n)
    for bs, groups in zip(assignment.bs, assignment.groups):
        k = np.array(groups)
        owner[k] = bs
        blocks[k[:, None], rows, cols] = blocks[k[:, None], cols, rows] = \
            thetas[bs].reshape(g, -1)[k]
    return TrialState(topo, owner, thetas, *relaxed_block_branches(blocks, z0))


def solve_trials(chans_list, weights: ObjectiveWeights, topo: RisTopology,
                 assignment: GroupAssignment, z0: float,
                 fw: FwConfig | None = None) -> list[TrialState]:
    """Configure a surface for each channel draw in ``chans_list``.

    Each priority base station of ``assignment`` solves its relaxed
    sub-problem over the whole surface (radius 1 for a fully-connected
    surface, sqrt(G) for G groups), and keeps the groups dedicated to it.
    With ``fw=None`` the direct links are taken as blocked and each solution
    is the scaled leading right singular vector of the reduced stacked matrix
    R: R^H u for the leading eigenvector u of its Gram matrix.  With an
    :class:`FwConfig` the direct links count: one conditional-gradient run
    per set of priority base stations whose Gram matrices share a size, batched
    over the trials *and* those base stations (one instance per trial and
    base station); an instance's result does not depend on the batch it
    runs in.  Snap a returned state with :meth:`TrialState.plan`.
    """
    assignment.validate(topo)
    radius = float(np.sqrt(topo.g))
    stacks = [_stacks(c, weights, topo, assignment) for c in chans_list]
    thetas = {}
    if fw is not None:
        by_rows: dict[int, list[int]] = {}
        for bs in assignment.bs:
            by_rows.setdefault(len(stacks[0][bs][1]), []).append(bs)
        for group in by_rows.values():
            keys = [(i, bs) for i in range(len(stacks)) for bs in group]
            grams, hs, factors = zip(*(stacks[i][bs] for i, bs in keys))
            acc, c, _ = frank_wolfe_batch(np.stack(grams), np.stack(hs), radius,
                                          fw.iterations,
                                          np.stack([first_column(f) for f in factors]),
                                          step_rule=fw.step_rule)
            for key, f, acc_i, c_i in zip(keys, factors, acc, c):
                thetas[key] = reduced_adjoint(f, acc_i, topo.g)
                thetas[key][0] += c_i
    else:
        for i, stack in enumerate(stacks):
            for bs, (gram, _, f) in stack.items():
                v = _canonical_phase(reduced_adjoint(
                    f, leading_right_singular_vector(gram)[0], topo.g))
                # real division: a one-element solution is exactly 1
                thetas[i, bs] = radius * (v.view(float) / np.linalg.norm(v)).view(complex)
    return [
        _state_from_thetas({bs: thetas[i, bs] for bs in assignment.bs},
                           topo, assignment, z0)
        for i in range(len(chans_list))
    ]


def _stack_shape(scenario: NetworkScenario, weights: ObjectiveWeights,
                 topo: RisTopology, assignment: GroupAssignment) -> int:
    """Rows of the sub-problem :func:`_stacks` builds for the first priority
    base station (its Gram matrix is rows x rows), worked out without
    sampling channels."""
    bss = range(scenario.num_bs) if topo.g == 1 else assignment.bs[:1]
    return scenario.m * sum(weights.factor(b, k) != 0.0 for b in bss
                            for k in range(scenario.users_per_bs[b]))


def _direct_chunk(rows: int, trials: int, instances: int) -> int:
    """Trials per conditional-gradient chunk: ``instances`` rows x rows Gram
    matrices per trial, held twice (the trials' stacks and the solver batch)."""
    per_trial = max(rows * rows * 16 * 2 * instances, 1)
    return max(1, min(trials, BATCH_BYTES // per_trial))


def _run_point(scenario: NetworkScenario, d: int, seed: int, trials: int,
               weights, topo, assignment, z0, fw, evaluate, context: str
               ) -> dict[object, list[float]]:
    """Samples of every metric ``evaluate(chans, state)`` returns, one per trial.

    Each trial draws fading on its own substream and is solved by
    :func:`solve_trials` (``fw=None``: blocked direct links):
    conditional-gradient solves batched over
    memory-bounded chunks of trials (each trial one instance per priority
    base station), closed-form solves one trial at a time.
    A draw whose evaluation raises :class:`DegenerateChannelError` is redrawn
    on the trial's next attempt substream and solved again; the point aborts
    once its redraws exceed ``MAX_DEGENERATE_FRACTION`` of its trials (one
    redraw is always tolerated).
    """
    allowed = max(1, int(MAX_DEGENERATE_FRACTION * trials))
    redraws = 0
    samples: dict[object, list[float]] = {}
    chunk = (_direct_chunk(_stack_shape(scenario, weights, topo, assignment), trials,
                           len(assignment.bs))
             if fw is not None else 1)
    for start in range(0, trials, chunk):
        indices = range(start, min(start + chunk, trials))
        chans_list = [sample_channels(scenario, d, stream_rng(seed, t)) for t in indices]
        states = solve_trials(chans_list, weights, topo, assignment, z0, fw)
        for t, chans, state in zip(indices, chans_list, states):
            attempt = 0
            while True:
                try:
                    metrics = evaluate(chans, state)
                    break
                except DegenerateChannelError:
                    redraws += 1
                    logger.warning("degenerate channel draw at %s; redrawing", context)
                    if redraws > allowed:
                        raise RuntimeError(f"more than {MAX_DEGENERATE_FRACTION:.0%} "
                                           f"degenerate trials at {context}")
                    attempt += 1
                    chans = sample_channels(scenario, d,
                                            stream_rng(seed, t, attempt=attempt))
                    state = solve_trials([chans], weights, topo, assignment, z0,
                                         fw)[0]
            for name, value in metrics.items():
                samples.setdefault(name, []).append(float(value))
    return samples


def _sim_settings(cfg: dict) -> tuple[int, int, tuple[str, ...]]:
    sim = cfg["simulation"]
    return int(sim["trials"]), int(sim["seed"]), tuple(sim["architectures"])


def _ghz_grid(start: float, stop: float, step: float) -> np.ndarray:
    return np.round(np.arange(float(start), float(stop) + float(step) / 2.0,
                              float(step)), 9)


def _weight_tag(weight_set: list[float]) -> str:
    return "mu_" + "_".join(f"{w:g}" for w in weight_set)


def _tracked_powers(chans, freqs_hz, plan_at, params, power) -> dict[int, float]:
    """Received power of the single tracked user at each frequency index, with
    the surface set to ``plan_at(f)`` and its scattering evaluated at f."""
    out = {}
    for fi, f in enumerate(freqs_hz):
        theta = scattering_from_capacitances(plan_at(f), f, params)
        out[fi] = evaluate_received_powers(chans, [theta], power).user_powers[0][0]
    return out


def _frequency_rows(ghz_values, label: str, samples, trials: int) -> list[ResultRow]:
    rows = []
    for fi, f_ghz in enumerate(ghz_values):
        mean, stderr = aggregate(samples[fi])
        rows.append(ResultRow("frequency_ghz", float(f_ghz), label,
                              "received_power_w", mean, stderr, trials))
    return rows


# ---------------------------------------------------------------------------
# freq-response: received power versus operating frequency, surface
# reconfigured (re-projected onto that frequency's codebook) at every grid
# point; the relaxed solve is frequency blind and done once per trial.


def freq_response(cfg: dict) -> dict[str, AggregateResult]:
    exp = cfg["experiments"]["freq-response"]
    trials, seed, archs = _sim_settings(cfg)
    params = circuit_params(cfg)
    self_range, inter_range = cap_ranges(cfg)
    bits = cfg["circuit"]["codebook_bits"]
    group_count = cfg["optimization"]["group_count"]
    bs, user = exp["tracked_bs"] - 1, exp["tracked_user"] - 1
    grid = exp["grid_ghz"]
    ghz_values = _ghz_grid(grid["start"], grid["stop"], grid["step"])
    freqs_hz = [ghz(f) for f in ghz_values]
    codebooks = {f: build_codebook(f, bits, self_range, inter_range, params)
                 for f in freqs_hz}
    weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))

    rows = []
    for d in exp["d_values"]:
        scenario = single_user_scenario(cfg, bs, user, freqs_hz[0], BLOCKED)
        power = power_config(cfg, scenario)

        def evaluate(chans, state):
            return _tracked_powers(chans, freqs_hz,
                                   lambda f: state.plan({0: codebooks[f]}),
                                   params, power)

        for arch in archs:
            topo = topology_for(arch, d, group_count)
            label = f"{arch} D={d}"
            samples = _run_point(
                scenario, d, seed, trials, weights, topo,
                GroupAssignment.single(0, topo), params.z0, None,
                evaluate, context=f"freq-response {label}")
            rows.extend(_frequency_rows(ghz_values, label, samples, trials))
    return {"freq_response": AggregateResult(tuple(rows))}


# ---------------------------------------------------------------------------
# target-shift: configure once for a priority frequency, then sweep the
# operating frequency with the capacitance plan held fixed.


def target_shift(cfg: dict) -> dict[str, AggregateResult]:
    exp = cfg["experiments"]["target-shift"]
    trials, seed, archs = _sim_settings(cfg)
    params = circuit_params(cfg)
    self_range, inter_range = cap_ranges(cfg)
    bits = cfg["circuit"]["codebook_bits"]
    group_count = cfg["optimization"]["group_count"]
    bs, user = exp["tracked_bs"] - 1, exp["tracked_user"] - 1
    d = exp["d"]
    weights = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))

    out = {}
    for target_ghz in exp["targets_ghz"]:
        f_star = ghz(target_ghz)
        ghz_values = _ghz_grid(target_ghz - exp["half_span_ghz"],
                               target_ghz + exp["half_span_ghz"], exp["step_ghz"])
        freqs_hz = [ghz(f) for f in ghz_values]
        codebook = build_codebook(f_star, bits, self_range, inter_range, params)
        scenario = single_user_scenario(cfg, bs, user, f_star, BLOCKED)
        power = power_config(cfg, scenario)

        def evaluate(chans, state):
            plan = state.plan({0: codebook})
            return _tracked_powers(chans, freqs_hz, lambda f: plan, params, power)

        rows = []
        for arch in archs:
            topo = topology_for(arch, d, group_count)
            samples = _run_point(
                scenario, d, seed, trials, weights, topo,
                GroupAssignment.single(0, topo), params.z0, None,
                evaluate, context=f"target-shift {arch}")
            rows.extend(_frequency_rows(ghz_values, arch, samples, trials))
        tag = f"{target_ghz:g}".replace(".", "p")
        out[f"target_shift_{tag}ghz"] = AggregateResult(tuple(rows))
    return out


# ---------------------------------------------------------------------------
# per-bs-power / network-power: received sum power versus element count for
# several base-station weight sets, with blocked or available direct links.


def _power_sweep(cfg: dict, weight_set: list[float], link_mode: str,
                 d_grid: list[int]) -> AggregateResult:
    trials, seed, archs = _sim_settings(cfg)
    params = circuit_params(cfg)
    self_range, inter_range = cap_ranges(cfg)
    bits = cfg["circuit"]["codebook_bits"]
    group_count = cfg["optimization"]["group_count"]
    fw = FwConfig(cfg["optimization"]["fw_iterations"],
                  cfg["optimization"]["fw_step_rule"])

    scenario = base_scenario(cfg, direct_links=link_mode)
    power = power_config(cfg, scenario)
    nu = tuple(tuple(map(float, row)) for row in cfg["optimization"]["user_weights"])
    weights = ObjectiveWeights(mu=tuple(map(float, weight_set)), nu=nu)
    preferred = ghz(cfg["optimization"]["target_frequency_ghz"])
    codebooks = {b: build_codebook(f, bits, self_range, inter_range, params)
                 for b, f in enumerate(scenario.frequencies)}

    def evaluate(chans, state, codebook_map):
        plan = state.plan(codebook_map)
        thetas = [scattering_from_capacitances(plan, f, params)
                  for f in scenario.frequencies]
        result = evaluate_received_powers(chans, thetas, power)
        per_bs = sum_power_per_bs(result)
        metrics = {f"sum_power_bs{b + 1}_w": v for b, v in enumerate(per_bs)}
        metrics["network_sum_power_w"] = network_sum_power(result)
        return metrics

    rows = []
    for arch in archs:
        for d in d_grid:
            topo = topology_for(arch, d, group_count)
            if topo.g == 1:
                target = fc_target_bs(weights, scenario.frequencies, preferred)
                assignment = GroupAssignment.single(target, topo)
            else:
                assignment = priority_assignment(weights, topo)
            samples = _run_point(
                scenario, d, seed, trials, weights, topo, assignment, params.z0,
                fw if link_mode == AVAILABLE else None,
                lambda chans, state: evaluate(chans, state, codebooks),
                context=f"{arch} D={d} {link_mode}")
            for name, values in samples.items():
                mean, stderr = aggregate(values)
                rows.append(ResultRow("elements", int(d), arch, name, mean, stderr,
                                      trials))
    return AggregateResult(tuple(rows))


def _power_experiment(cfg: dict, key: str, keep) -> dict[str, AggregateResult]:
    """One table per (weight set, link mode), holding the rows whose metric
    name satisfies ``keep``."""
    exp = cfg["experiments"][key]
    prefix = key.replace("-", "_")
    out = {}
    for weight_set in exp["weight_sets"]:
        for mode in exp["link_modes"]:
            result = _power_sweep(cfg, weight_set, mode, exp["d_grid"])
            rows = tuple(r for r in result.rows if keep(r.metric))
            out[f"{prefix}__{_weight_tag(weight_set)}__{mode}"] = AggregateResult(rows)
    return out


def per_bs_power(cfg: dict) -> dict[str, AggregateResult]:
    return _power_experiment(cfg, "per-bs-power",
                             lambda metric: metric.startswith("sum_power_bs"))


def network_power(cfg: dict) -> dict[str, AggregateResult]:
    return _power_experiment(cfg, "network-power",
                             lambda metric: metric == "network_sum_power_w")


# ---------------------------------------------------------------------------
# interference: the surface is dedicated to one base station while a victim
# base station, unaware of it, zero-forces against outdated (surface-free)
# channel estimates.


def interference(cfg: dict) -> dict[str, AggregateResult]:
    exp = cfg["experiments"]["interference"]
    trials, seed, archs = _sim_settings(cfg)
    params = circuit_params(cfg)
    self_range, inter_range = cap_ranges(cfg)
    bits = cfg["circuit"]["codebook_bits"]
    group_count = cfg["optimization"]["group_count"]
    fw = FwConfig(cfg["optimization"]["fw_iterations"],
                  cfg["optimization"]["fw_step_rule"])

    victim = exp["victim_bs"] - 1
    num_bs = len(cfg["scenario"]["bs_positions_m"])
    aided = min(b for b in range(num_bs) if b != victim)
    freqs = [ghz(f) for f in cfg["scenario"]["frequencies_ghz"]]
    freqs[victim] = ghz(exp["interferer_frequency_ghz"])

    nu = tuple(tuple(map(float, row)) for row in cfg["optimization"]["user_weights"])
    mu = tuple(1.0 if b == aided else 0.0 for b in range(num_bs))
    weights = ObjectiveWeights(mu=mu, nu=nu)
    ref_metric = f"sum_se_bs{victim + 1}_ref"
    act_metric = f"sum_se_bs{victim + 1}"

    out = {}
    for position in exp["ris_positions_m"]:
        scenario = base_scenario(cfg, direct_links=AVAILABLE,
                                 ris_position=tuple(map(float, position)),
                                 frequencies=tuple(freqs))
        power = power_config(cfg, scenario)
        codebook = build_codebook(scenario.frequencies[aided], bits,
                                  self_range, inter_range, params)

        def evaluate(chans, state, with_reference):
            plan = state.plan({aided: codebook})
            theta_at_victim = scattering_from_capacitances(
                plan, scenario.frequencies[victim], params)
            metrics = {act_metric: sum_spectral_efficiency_outdated(
                chans, victim, theta_at_victim, power)}
            if with_reference:
                # Surface-free, so identical for every architecture: the
                # first architecture's rows carry it.
                d = chans.num_ris_elements
                metrics[ref_metric] = sum_spectral_efficiency_outdated(
                    chans, victim, np.zeros((d, d), dtype=complex), power)
            return metrics

        rows = []
        for arch in archs:
            for d in exp["d_grid"]:
                topo = topology_for(arch, d, group_count)
                assignment = GroupAssignment.single(aided, topo)
                with_reference = arch == archs[0]
                samples = _run_point(
                    scenario, d, seed, trials, weights, topo, assignment, params.z0,
                    fw,
                    lambda chans, state: evaluate(chans, state, with_reference),
                    context=f"interference {arch} D={d} at {position}")
                mean, stderr = aggregate(samples[act_metric])
                rows.append(ResultRow("elements", int(d), arch, act_metric,
                                      mean, stderr, trials))
                if with_reference:
                    mean, stderr = aggregate(samples[ref_metric])
                    rows.append(ResultRow("elements", int(d), "interference-free",
                                          act_metric, mean, stderr, trials))
        tag = f"x{position[0]:g}_y{position[1]:g}".replace(".", "p")
        out[f"interference_{tag}"] = AggregateResult(tuple(rows))
    return out


RUNNERS = {
    "freq-response": freq_response,
    "target-shift": target_shift,
    "per-bs-power": per_bs_power,
    "network-power": network_power,
    "interference": interference,
}
