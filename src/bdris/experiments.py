"""Named experiments: frequency response, target shifts, power sweeps, interference.

This module holds the Monte Carlo engine.  :func:`solve_trials` is the one
configuration pipeline, public as ``bdris.solve_trials``: relaxed solve,
branch retrieval, and a :class:`TrialState` that snaps to any codebook set.
Each experiment builds one list of curves, each a table name, a grid point
(:class:`Point`) and a rows function, and runs all their points through
:func:`_run_sweep`, the one trial loop.  It walks the (point, trial)
units in point-major order, draws each trial's fading on its own
deterministic substream, solves the relaxed problem once per trial
(frequency blind, from each sub-problem's Gram matrix), hands the solution
to the point's ``evaluate`` (codebook projection, scattering, metrics), and
redraws failed draws against one budget per point.  Each curve's rows
function then aggregates its point's samples into mean and standard error.

Conditional-gradient solves are pooled across trials, priority base stations
and grid points: consecutive direct-link units form batches of at most
``BATCH_BYTES`` of Gram matrices, one solver call per Gram size in a batch.
Blocked-link units are solved one at a time.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import (AVAILABLE, BLOCKED, NetworkScenario, PowerConfig, sample_channels,
                      stream_rng)
from .circuit import CapacitancePlan, Codebook, RisTopology, build_codebook, \
    scattering_from_capacitances
from .config import aided_bs, cap_ranges, circuit_params, dbm_to_watts, ghz, ghz_grid, \
    power_config, base_scenario, single_user_scenario
from .errors import DegenerateChannelError, RedrawBudgetError, SingularNetworkError
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
# degenerate draws (each one is redrawn and logged).
MAX_DEGENERATE_FRACTION = 0.01

# Gram-matrix bytes of one conditional-gradient batch, a measured choice:
# every solver call pays about 24 us of numpy overhead per iteration, while
# batches far beyond the per-core L2 cache (2 MiB) stream their Gram
# matrices from memory on every iteration.  A batch's channel draws are held
# with it, so peak RSS grows with the budget (+1.7% at 800 KiB, +3.1% at
# 1 MiB on the interference benchmark); 800 KiB still pairs the default
# fully-connected sub-problem (160 rows, 400 KiB).  README has the timings.
BATCH_BYTES = 800 << 10


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

    owner: np.ndarray
    thetas: dict[int, np.ndarray]
    self_y: np.ndarray
    inter_y: np.ndarray

    def plan(self, codebooks: dict[int, Codebook]) -> CapacitancePlan:
        """Capacitance plan snapping each group onto its priority base
        station's codebook in ``codebooks``."""
        self_c, inter_c = np.empty(self.self_y.shape), np.empty(self.inter_y.shape)
        for bs in set(self.owner.tolist()):  # np.unique imports numpy.ma: 1 MiB of RSS
            k = np.flatnonzero(self.owner == bs)
            self_c[k], inter_c[k] = snap_to_codebook(self.self_y[k], self.inter_y[k],
                                                     codebooks[bs])
        return CapacitancePlan(self_c, inter_c)


def _factors(chans, weights: ObjectiveWeights, topo: RisTopology, bs: int):
    """Row factors (see :func:`stack_factors`) of priority base station ``bs``'s
    sub-problem: over every user if fully connected, else over its users."""
    return stack_factors(chans, weights, range(len(chans.g)) if topo.g == 1 else (bs,))


def _stack(chans, weights: ObjectiveWeights, topo: RisTopology,
           bs: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and direct vector of the sub-problem :func:`_factors` describes."""
    if topo.g == 1:
        return stack_fc(chans, weights)
    return stack_gc(chans, weights, topo, bs)


def _relaxed_solutions(draws) -> list[dict[int, np.ndarray]]:
    """Relaxed stacked solution of each priority base station, per draw.

    ``draws`` holds ``(chans, weights, topo, assignment, fw)`` tuples.  Each
    priority base station solves its relaxed sub-problem over the whole
    surface (radius 1 for a fully-connected surface, sqrt(G) for G groups).
    With ``fw=None`` the direct links are taken as blocked and the solution
    is the scaled leading right singular vector of the reduced stacked
    matrix R: R^H u for the leading eigenvector u of its Gram matrix.  With
    an :class:`FwConfig` the direct links count: the instances of every draw
    (one per draw and priority base station) that share a Gram size and
    solver settings run as one conditional-gradient batch, their Gram
    matrices written straight into it.  An instance's result does not depend
    on the batch it runs in.
    """
    thetas = [{} for _ in draws]
    batches: dict[tuple[int, FwConfig], list] = {}
    for i, (chans, weights, topo, assignment, fw) in enumerate(draws):
        for bs in assignment.bs:
            f = _factors(chans, weights, topo, bs)
            if fw is not None:
                rows = sum(len(a) * len(b) for a, b in f)
                batches.setdefault((rows, fw), []).append((i, bs, f))
                continue
            gram, _ = _stack(chans, weights, topo, bs)
            v = _canonical_phase(reduced_adjoint(
                f, leading_right_singular_vector(gram)[0], topo.g))
            # real division: a one-element solution is exactly 1
            thetas[i][bs] = float(np.sqrt(topo.g)) * (
                v.view(float) / np.linalg.norm(v)).view(complex)
    for (rows, fw), instances in batches.items():
        acc, c = _frank_wolfe_instances(draws, instances, rows, fw)
        for (i, bs, f), acc_j, c_j in zip(instances, acc, c):
            thetas[i][bs] = reduced_adjoint(f, acc_j, draws[i][2].g)
            thetas[i][bs][0] += c_j
    return thetas


def _frank_wolfe_instances(draws, instances, rows: int, fw: FwConfig):
    """Row-space coefficients ``(acc, c)`` of one conditional-gradient call over
    ``instances`` ((draw index, base station, row factors) with ``rows``-row
    sub-problems).  The Gram matrices are written straight into the batch,
    which is freed on return."""
    grams = np.empty((len(instances), rows, rows), dtype=complex)
    hs = np.empty((len(instances), rows), dtype=complex)
    e1 = np.empty((len(instances), rows), dtype=complex)
    radius = np.empty(len(instances))
    for j, (i, bs, f) in enumerate(instances):
        chans, weights, topo = draws[i][:3]
        grams[j], hs[j] = _stack(chans, weights, topo, bs)
        e1[j] = first_column(f)
        radius[j] = np.sqrt(topo.g)
    acc, c, _ = frank_wolfe_batch(grams, hs, radius, fw.iterations, e1,
                                  step_rule=fw.step_rule)
    return acc, c


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
    return TrialState(owner, thetas, *relaxed_block_branches(blocks, z0))


def solve_trials(chans_list, weights: ObjectiveWeights, topo: RisTopology,
                 assignment: GroupAssignment, z0: float,
                 fw: FwConfig | None = None) -> list[TrialState]:
    """Configure a surface for each channel draw in ``chans_list``.

    Each priority base station of ``assignment`` solves its relaxed
    sub-problem and keeps the groups dedicated to it (see
    :func:`_relaxed_solutions`): ``fw=None`` takes the direct links as
    blocked, an :class:`FwConfig` runs one conditional-gradient batch over
    every draw.  Branch retrieval raises
    :class:`~bdris.errors.SingularNetworkError` on a short-circuited block.
    Snap a returned state with :meth:`TrialState.plan`.
    """
    assignment.validate(topo)
    thetas = _relaxed_solutions([(c, weights, topo, assignment, fw) for c in chans_list])
    return [_state_from_thetas(t, topo, assignment, z0) for t in thetas]


@dataclass(frozen=True)
class Point:
    """One grid point of a sweep.

    Its trials draw fading for ``scenario`` at ``d`` elements and configure
    ``topo`` for ``weights`` under ``assignment``; ``fw=None`` takes the
    direct links as blocked.  ``evaluate(chans, state)`` returns one trial's
    metrics by name; ``context`` names the point in logs and errors.
    """

    scenario: NetworkScenario
    d: int
    topo: RisTopology
    assignment: GroupAssignment
    weights: ObjectiveWeights
    fw: FwConfig | None
    evaluate: Callable[[object, TrialState], dict]
    context: str

    def __post_init__(self):
        self.assignment.validate(self.topo)

    def problem(self, chans) -> tuple:
        """The draw tuple :func:`_relaxed_solutions` solves for ``chans``."""
        return chans, self.weights, self.topo, self.assignment, self.fw


def _stack_shape(scenario: NetworkScenario, weights: ObjectiveWeights,
                 topo: RisTopology, assignment: GroupAssignment) -> dict[int, int]:
    """Rows of each priority base station's sub-problem (its Gram matrix is
    rows x rows), worked out without sampling channels."""
    return {bs: scenario.m * sum(
        weights.factor(b, k) != 0.0
        for b in (range(scenario.num_bs) if topo.g == 1 else (bs,))
        for k in range(scenario.users_per_bs[b])) for bs in assignment.bs}


def _batches(points: list[Point], trials: int):
    """The (point, trial) units of a sweep in point-major order, grouped into
    solver batches.

    Consecutive direct-link units share a batch while their Gram matrices
    (16 rows^2 bytes per instance) fit ``BATCH_BYTES``; a unit larger than
    that forms a batch alone.  A blocked-link unit counts as unbounded, so it
    always forms a batch of one.
    """
    batch, size = [], 0.0
    for p, point in enumerate(points):
        unit = float("inf") if point.fw is None else 16 * sum(
            r * r for r in _stack_shape(point.scenario, point.weights, point.topo,
                                        point.assignment).values())
        for t in range(trials):
            if batch and size + unit > BATCH_BYTES:
                yield batch
                batch, size = [], 0.0
            batch.append((p, t))
            size += unit
    if batch:
        yield batch


def _solved_units(points: list[Point], units, seed: int, attempt: int = 0) -> list:
    """((point index, trial), chans, relaxed solution) of each unit in ``units``:
    every unit is drawn first, on substream ``stream_rng(seed, t, attempt)``,
    then all are solved together by :func:`_relaxed_solutions`."""
    draws = [sample_channels(points[p].scenario, points[p].d,
                             stream_rng(seed, t, attempt=attempt)) for p, t in units]
    solutions = _relaxed_solutions([points[p].problem(chans)
                                    for (p, _), chans in zip(units, draws)])
    return list(zip(units, draws, solutions))


def _run_sweep(points: list[Point], seed: int, trials: int,
               z0: float) -> list[dict[object, list[float]]]:
    """Samples of every metric each point's ``evaluate`` returns, one per trial.

    Each batch of units (see :func:`_batches`) is drawn and solved together
    (:func:`_solved_units`); its units are then evaluated in order, and the
    batch is released before the next one is drawn.  A draw whose retrieval
    or evaluation raises :class:`DegenerateChannelError` or
    :class:`SingularNetworkError` is redrawn on the trial's next attempt
    substream and solved again on its own; the rest of its batch is
    untouched.  A point raises :class:`RedrawBudgetError` once its redraws
    exceed ``MAX_DEGENERATE_FRACTION`` of its trials (one redraw is always
    tolerated).
    """
    allowed = max(1, int(MAX_DEGENERATE_FRACTION * trials))
    redraws = [0] * len(points)
    samples: list[dict[object, list[float]]] = [{} for _ in points]
    for batch in _batches(points, trials):
        for (p, t), chans, solution in _solved_units(points, batch, seed):
            point = points[p]
            for attempt in itertools.count(1):
                try:
                    metrics = point.evaluate(chans, _state_from_thetas(
                        solution, point.topo, point.assignment, z0))
                    break
                except (DegenerateChannelError, SingularNetworkError) as exc:
                    redraws[p] += 1
                    logger.warning("%s at %s; redrawing", type(exc).__name__, point.context)
                    if redraws[p] > allowed:
                        raise RedrawBudgetError(
                            f"more than {MAX_DEGENERATE_FRACTION:.0%} degenerate "
                            f"trials at {point.context}") from exc
                    _, chans, solution = _solved_units(points, [(p, t)], seed, attempt)[0]
            for name, value in metrics.items():
                samples[p].setdefault(name, []).append(float(value))
        del chans, solution  # the batch's last unit: not held while the next is drawn
    return samples


class _Settings:
    """What every experiment reads of a validated config.

    An experiment is a list of curves, each a (table name, :class:`Point`,
    rows function); :meth:`tabulate` runs all their points in one sweep.
    """

    def __init__(self, cfg: dict):
        sim, op = cfg["simulation"], cfg["optimization"]
        self.trials, self.seed = int(sim["trials"]), int(sim["seed"])
        self.archs = tuple(sim["architectures"])
        self.params = circuit_params(cfg)
        self.cap_ranges = cap_ranges(cfg)
        self.bits = cfg["circuit"]["codebook_bits"]
        self.group_count = op["group_count"]
        self.fw = FwConfig(op["fw_iterations"], op["fw_step_rule"])
        self.nu = tuple(tuple(map(float, row)) for row in op["user_weights"])

    def codebook(self, f: float) -> Codebook:
        return build_codebook(f, self.bits, *self.cap_ranges, self.params)

    def row(self, variable: str, value, label: str, metric: str, samples) -> ResultRow:
        return ResultRow(variable, value, label, metric, *aggregate(samples), self.trials,
                         tuple(samples))

    def tabulate(self, curves) -> dict[str, AggregateResult]:
        """Tables of ``curves``: each curve's rows function turns the samples
        of its point (see :func:`_run_sweep`) into the rows it appends to its
        table, in curve order."""
        tables: dict[str, list[ResultRow]] = {}
        for (name, _, rows), samples in zip(curves, _run_sweep(
                [point for _, point, _ in curves], self.seed, self.trials, self.params.z0)):
            tables.setdefault(name, []).extend(rows(samples))
        return {name: AggregateResult(tuple(rows)) for name, rows in tables.items()}


# ---------------------------------------------------------------------------
# freq-response / target-shift: received power of one tracked user, served
# alone with the whole power budget, versus operating frequency.  The relaxed
# solve is frequency blind and done once per trial; freq-response re-projects
# it onto each frequency's codebook, target-shift holds the plan snapped onto
# its target frequency's codebook.

_TRACKED = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))


def _tracked_curves(s: _Settings, cfg: dict, key: str, name: str, ghz_values,
                    codebooks: list[Codebook], grid) -> list:
    """Curves of table ``name``, one per (label, architecture, element count)
    in ``grid``, of the tracked user's received power at ``ghz_values``.

    At each frequency the surface is snapped onto that frequency's entry of
    ``codebooks``, re-snapped only where the entry changes: one plan is held
    at a time.  The scenario operates at ``codebooks[0]``'s frequency.
    """
    exp, pw = cfg["experiments"][key], cfg["power"]
    scenario = single_user_scenario(cfg, exp["tracked_bs"] - 1, exp["tracked_user"] - 1,
                                    codebooks[0].frequency, BLOCKED)
    power = PowerConfig(dbm_to_watts(pw["total_dbm"]), ((1.0,),),
                        dbm_to_watts(pw["noise_dbm"]))
    freqs = [ghz(f) for f in ghz_values]

    def evaluate(chans, state):
        left, held, out = np.conj(chans.f[0]).T, None, {}
        for fi, (f, codebook) in enumerate(zip(freqs, codebooks)):
            if codebook is not held:
                held, plan = codebook, state.plan({0: codebook})
            rows = scattering_from_capacitances(plan, f, s.params, left)
            out[fi] = evaluate_received_powers(chans, [rows], power).user_powers[0][0]
        return out

    curves = []
    for label, arch, d in grid:
        topo = topology_for(arch, d, s.group_count)
        curves.append((name, Point(scenario, d, topo, GroupAssignment.single(0, topo),
                                   _TRACKED, None, evaluate, f"{key} {label}"),
                       lambda samples, label=label: [
                           s.row("frequency_ghz", float(x), label, "received_power_w",
                                 samples[fi]) for fi, x in enumerate(ghz_values)]))
    return curves


def freq_response(cfg: dict) -> dict[str, AggregateResult]:
    s, exp = _Settings(cfg), cfg["experiments"]["freq-response"]
    ghz_values = ghz_grid(**exp["grid_ghz"])
    return s.tabulate(_tracked_curves(
        s, cfg, "freq-response", "freq_response", ghz_values,
        [s.codebook(ghz(f)) for f in ghz_values],
        [(f"{arch} D={d}", arch, d) for d in exp["d_values"] for arch in s.archs]))


def target_shift(cfg: dict) -> dict[str, AggregateResult]:
    s, exp = _Settings(cfg), cfg["experiments"]["target-shift"]
    curves = []
    for target in exp["targets_ghz"]:
        ghz_values = ghz_grid(target - exp["half_span_ghz"],
                              target + exp["half_span_ghz"], exp["step_ghz"])
        curves += _tracked_curves(
            s, cfg, "target-shift", "target_shift_" + f"{target:g}".replace(".", "p") + "ghz",
            ghz_values, [s.codebook(ghz(target))] * len(ghz_values),
            [(arch, arch, exp["d"]) for arch in s.archs])
    return s.tabulate(curves)


# ---------------------------------------------------------------------------
# per-bs-power / network-power: received sum power versus element count for
# several base-station weight sets, with blocked or available direct links.


def _power_experiment(cfg: dict, key: str, keep) -> dict[str, AggregateResult]:
    """One table per (weight set, link mode), holding the rows whose metric
    name satisfies ``keep``."""
    s, exp = _Settings(cfg), cfg["experiments"][key]
    scenarios = {mode: base_scenario(cfg, direct_links=mode) for mode in (BLOCKED, AVAILABLE)}
    power = power_config(cfg, scenarios[BLOCKED])  # the same users under either mode
    freqs = scenarios[BLOCKED].frequencies
    codebooks = {b: s.codebook(f) for b, f in enumerate(freqs)}
    preferred = ghz(cfg["optimization"]["target_frequency_ghz"])

    def evaluate(chans, state):
        plan = state.plan(codebooks)
        rows = [scattering_from_capacitances(plan, f, s.params, np.conj(chans.f[b]).T)
                for b, f in enumerate(freqs)]
        result = evaluate_received_powers(chans, rows, power)
        metrics = {f"sum_power_bs{b + 1}_w": v for b, v in enumerate(sum_power_per_bs(result))}
        metrics["network_sum_power_w"] = network_sum_power(result)
        return metrics

    curves = []
    for weight_set in exp["weight_sets"]:
        weights = ObjectiveWeights(mu=tuple(map(float, weight_set)), nu=s.nu)
        tag = "_".join(f"{w:g}" for w in weight_set)
        for mode in exp["link_modes"]:
            for arch in s.archs:
                for d in exp["d_grid"]:
                    topo = topology_for(arch, d, s.group_count)
                    assignment = (
                        GroupAssignment.single(fc_target_bs(weights, freqs, preferred), topo)
                        if topo.g == 1 else priority_assignment(weights, topo))
                    curves.append((
                        f"{key.replace('-', '_')}__mu_{tag}__{mode}",
                        Point(scenarios[mode], d, topo, assignment, weights,
                              s.fw if mode == AVAILABLE else None, evaluate,
                              f"{arch} D={d} {mode}"),
                        lambda samples, arch=arch, d=d: [
                            s.row("elements", int(d), arch, metric, values)
                            for metric, values in samples.items() if keep(metric)]))
    return s.tabulate(curves)


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
    s, exp = _Settings(cfg), cfg["experiments"]["interference"]
    victim = exp["victim_bs"] - 1
    aided = aided_bs(victim)
    freqs = [ghz(f) for f in cfg["scenario"]["frequencies_ghz"]]
    freqs[victim] = ghz(exp["interferer_frequency_ghz"])
    weights = ObjectiveWeights(mu=tuple(float(b == aided) for b in range(len(freqs))),
                               nu=s.nu)
    codebook = s.codebook(freqs[aided])
    power = power_config(cfg, base_scenario(cfg, direct_links=AVAILABLE))
    metric = f"sum_se_bs{victim + 1}"

    def evaluator(reference: bool):
        def evaluate(chans, state):
            rows = scattering_from_capacitances(state.plan({aided: codebook}), freqs[victim],
                                                s.params, np.conj(chans.f[victim]).T)
            out = {metric: sum_spectral_efficiency_outdated(chans, victim, rows, power)}
            if reference:  # surface-free, so the first architecture's rows carry it
                out["interference-free"] = sum_spectral_efficiency_outdated(
                    chans, victim, np.zeros_like(rows), power)
            return out
        return evaluate

    curves = []
    for position in exp["ris_positions_m"]:
        scenario = base_scenario(cfg, direct_links=AVAILABLE,
                                 ris_position=tuple(map(float, position)),
                                 frequencies=tuple(freqs))
        name = "interference_" + f"x{position[0]:g}_y{position[1]:g}".replace(".", "p")
        for arch in s.archs:
            for d in exp["d_grid"]:
                topo = topology_for(arch, d, s.group_count)
                curves.append((
                    name, Point(scenario, d, topo, GroupAssignment.single(aided, topo),
                                weights, s.fw, evaluator(arch == s.archs[0]),
                                f"interference {arch} D={d} at {position}"),
                    lambda samples, arch=arch, d=d: [
                        s.row("elements", int(d), label, metric, samples[key])
                        for label, key in ((arch, metric), ("interference-free",) * 2)
                        if key in samples]))
    return s.tabulate(curves)


RUNNERS = {
    "freq-response": freq_response,
    "target-shift": target_shift,
    "per-bs-power": per_bs_power,
    "network-power": network_power,
    "interference": interference,
}
