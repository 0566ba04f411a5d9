"""Named experiments: frequency response, target shifts, power sweeps, interference.

This module holds the Monte Carlo engine.  :func:`solve_trials` is the one
configuration pipeline, public as ``bdris.experiments.solve_trials``: relaxed solve,
branch retrieval, and a :class:`TrialState` that snaps to any codebook set.
Each experiment builds one list of grid points (:class:`Point`) and runs
them all through :func:`_run_sweep`, the one trial loop.  It draws each
trial's fading once, on its own deterministic substream, for every point
that reads it (blocked points read it with their direct links zeroed),
solves the relaxed problem of each (point, trial) unit (frequency blind,
from each sub-problem's Gram matrix), hands the solution to the point's
``evaluate`` (codebook projection, scattering, metrics), and redraws a
failed draw for its point alone, against one budget per point.
``evaluate`` keys each sample by the result row it feeds, and each key's
samples aggregate into that row's mean and standard error.

Conditional-gradient solves are pooled across trials, priority base stations
and grid points: consecutive direct-link units form batches of at most
``BATCH_BYTES`` of Gram matrices, one solver call per Gram size in a batch.
A blocked unit whose row factors a batched unit shares reads that unit's
Gram matrix from its batch slot; any other is solved when it is drawn.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import NetworkScenario, PowerConfig, sample_channels, stream_rng
from .circuit import CapacitancePlan, Codebook, RisTopology, build_codebook, \
    scattering_from_capacitances
from .config import AVAILABLE, aided_bs, cap_ranges, circuit_params, dbm_to_watts, ghz, ghz_grid, \
    power_config, base_scenario, single_user_scenario, table_name
from .errors import DegenerateChannelError, RedrawBudgetError, SingularNetworkError
from .matrixkit import _canonical_phase, leading_right_singular_vector, vech_indices
from .metrics import (ResultRow, aggregate, evaluate_received_powers,
                      sum_spectral_efficiency_outdated)
# _snap is not called here; the traced benchmark wraps it by name (ROADMAP item 1).
from .optimizer import (GroupAssignment, ObjectiveWeights, _snap,
                        first_column, frank_wolfe_batch, reduced_adjoint,
                        relaxed_block_branches, snap_to_codebook, stack_factors,
                        stack_fc, stack_gc)

# A grid point aborts once more than this fraction of its trials hit
# degenerate draws (each one is redrawn and printed).
MAX_DEGENERATE_FRACTION = 0.01

# Gram-matrix bytes of one conditional-gradient batch, a measured choice:
# every solver call pays about 24 us of numpy overhead per iteration, while
# batches far beyond the per-core L2 cache (2 MiB) stream their Gram
# matrices from memory on every iteration.  A batch's channel draws (one per
# group of points and trial) and row factors, and the one further draw that
# closed it, are held with it, so peak RSS grows with the budget (direct-links,
# against one unit per batch, measured with one draw per point and trial:
# +1.5-1.8% at 800 KiB, +2.6-2.9% at 1 MiB); 800 KiB still pairs the default
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
    solution: each group's block in vech order, one group after another.
    ``owner[k]`` is the priority base station of group k, and ``self_y``
    (g, d_bar) and ``inter_y`` (g, d_bar (d_bar - 1) / 2) hold the relaxed
    branch admittances of every group (see :func:`relaxed_block_branches`),
    so plans snap cheaply against any codebook set.
    """

    owner: np.ndarray
    thetas: dict[int, np.ndarray]
    self_y: np.ndarray
    inter_y: np.ndarray

    def plan(self, codebooks: dict[int, Codebook]) -> CapacitancePlan:
        """Plan snapping each group onto its priority base station's codebook in
        ``codebooks``: codeword indices into the capacitance tables those codebooks
        share (a run's all do); codebooks whose tables differ raise ValueError."""
        self_i, inter_i = np.empty(self.self_y.shape, int), np.empty(self.inter_y.shape, int)
        books = {bs: codebooks[bs] for bs in self.owner.tolist()}
        first, *others = books.values()
        if not all(np.array_equal(cb.self_caps, first.self_caps)
                   and np.array_equal(cb.inter_caps, first.inter_caps) for cb in others):
            raise ValueError("a plan's codebooks must share their capacitance tables")
        for bs, cb in books.items():
            k = np.flatnonzero(self.owner == bs)
            self_i[k], inter_i[k] = snap_to_codebook(self.self_y[k], self.inter_y[k], cb)
        return CapacitancePlan(first.self_caps, self_i, first.inter_caps, inter_i)


def _subproblems(chans, weights: ObjectiveWeights, topo: RisTopology,
                 assignment: GroupAssignment) -> dict[int, list]:
    """Row factors (see :func:`stack_factors`) of each priority base station's
    sub-problem on draw ``chans``: over every user if the surface is fully
    connected, else over that base station's users."""
    return {bs: stack_factors(chans, weights, range(len(chans.g)) if topo.g == 1 else (bs,))
            for bs in assignment.bs}


def _stack(factors, g: int, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix, written into ``out`` if given, and direct vector of the
    sub-problem ``factors`` over g groups (two names for one computation: the
    traced benchmark wraps both)."""
    return stack_fc(factors, out) if g == 1 else stack_gc(factors, g, out)


def _relaxed_solutions(units) -> list[dict[int, np.ndarray]]:
    """Relaxed stacked solution of each priority base station, per unit.

    ``units`` holds ``(subproblems, g, fw)`` tuples (:func:`_subproblems`).
    Each sub-problem is solved over the whole surface of g groups (radius
    sqrt(g)).  With ``fw=None`` the direct links are taken as blocked and the
    solution is the scaled leading right singular vector of the reduced
    stacked matrix R: R^H u for the leading eigenvector u of its Gram matrix.
    With an iteration cap ``fw`` the direct links count: the sub-problems of
    every unit that share a Gram size and iteration cap run as one
    conditional-gradient batch, their Gram matrices written straight into it.
    An instance's result does not depend on the batch it runs in.  A blocked
    sub-problem on the row factors (the same list) of a batched instance
    rides on it: the Gram matrix does not read the direct rows, so the
    blocked solve reads the instance's from its batch slot.
    """
    thetas = [{} for _ in units]
    batches: dict[tuple[int, int], list] = {}
    # (id of row factors, g) -> the riders of the first instance on them
    riders: dict[tuple[int, int], list] = {}
    for i, (subproblems, g, fw) in enumerate(units):
        for bs, f in subproblems.items() if fw is not None else ():
            rows = sum(d.size for *_, d in f)  # = len(h)
            instance = (i, bs, f, g, [])
            batches.setdefault((rows, fw), []).append(instance)
            riders.setdefault((id(f), g), instance[-1])
    for i, (subproblems, g, fw) in enumerate(units):
        for bs, f in subproblems.items() if fw is None else ():
            if (id(f), g) in riders:
                riders[id(f), g].append((i, bs))
            else:
                thetas[i][bs] = _blocked_solution(f, _stack(f, g)[0], g)
    for (rows, fw), instances in batches.items():
        _frank_wolfe_instances(instances, rows, fw, thetas)
    return thetas


def _blocked_solution(factors, gram: np.ndarray, g: int) -> np.ndarray:
    """Blocked-link solution of the sub-problem ``factors`` over g groups from
    its Gram matrix, which is only read."""
    v = _canonical_phase(reduced_adjoint(
        factors, leading_right_singular_vector(gram)[0], g))
    # real division: a one-element solution is exactly 1
    return float(np.sqrt(g)) * (v.view(float) / np.linalg.norm(v)).view(complex)


def _frank_wolfe_instances(instances, rows: int, iterations: int, thetas: list[dict]):
    """Solve ``instances`` ((unit index, base station, row factors, group
    count, riders) of ``rows``-row sub-problems) in one conditional-gradient
    call of at most ``iterations`` iterations, writing each solution into
    ``thetas``.  Each Gram matrix is computed in its batch slot, with no copy,
    and an instance's riders ((unit index, base station) of blocked
    sub-problems on the same factors) are solved from that slot before the
    solver overwrites the batch, which is freed on return."""
    grams = np.empty((len(instances), rows, rows), dtype=complex)
    hs = np.empty((len(instances), rows), dtype=complex)
    e1 = np.empty((len(instances), rows), dtype=complex)
    radius = np.empty(len(instances))
    for j, (_, _, f, g, blocked) in enumerate(instances):
        hs[j] = _stack(f, g, grams[j])[1]
        for i, bs in blocked:
            thetas[i][bs] = _blocked_solution(f, grams[j], g)
        e1[j] = first_column(f)
        radius[j] = np.sqrt(g)
    acc, c = frank_wolfe_batch(grams, hs, radius, iterations, e1)
    for (i, bs, f, g, _), acc_j, c_j in zip(instances, acc, c):
        thetas[i][bs] = reduced_adjoint(f, acc_j, g)
        thetas[i][bs][0] += c_j


def _state_from_thetas(thetas: dict[int, np.ndarray], topo: RisTopology,
                       assignment: GroupAssignment, z0: float) -> TrialState:
    """Trial state of the relaxed stacked solutions ``thetas`` (kept, not copied).

    Each group's block is taken from its priority base station's solution
    into a fresh stack; all blocks then retrieve their branches in one
    :func:`relaxed_block_branches` call, which overwrites that stack.
    """
    g, n = topo.g, topo.d_bar
    owner = np.array(assignment.owner)
    blocks = np.zeros((g, n, n), dtype=complex)
    rows, cols = vech_indices(n)
    for bs in assignment.bs:
        k = np.flatnonzero(owner == bs)
        blocks[k[:, None], rows, cols] = blocks[k[:, None], cols, rows] = \
            thetas[bs].reshape(g, -1)[k]
    return TrialState(owner, thetas, *relaxed_block_branches(blocks, z0))


def solve_trials(chans_list, weights: ObjectiveWeights, topo: RisTopology,
                 assignment: GroupAssignment, z0: float,
                 fw: int | None = None) -> list[TrialState]:
    """Configure a surface for each channel draw in ``chans_list``.

    Each priority base station of ``assignment`` solves its relaxed
    sub-problem and keeps the groups dedicated to it (see
    :func:`_relaxed_solutions`): ``fw=None`` takes the direct links as
    blocked, an iteration count runs one conditional-gradient batch of at
    most that many iterations over every draw.  Branch retrieval raises
    :class:`~bdris.errors.SingularNetworkError` on a short-circuited block.
    Snap a returned state with :meth:`TrialState.plan`.
    """
    assignment.validate(topo)
    thetas = _relaxed_solutions([(_subproblems(c, weights, topo, assignment), topo.g, fw)
                                 for c in chans_list])
    return [_state_from_thetas(t, topo, assignment, z0) for t in thetas]


@dataclass(frozen=True)
class Point:
    """One grid point of a sweep.

    Its trials draw fading for ``scenario`` at ``topo.d`` elements and
    configure ``topo`` for ``weights`` under ``assignment`` with at most
    ``fw`` conditional-gradient iterations.  ``fw`` alone states the link
    mode: ``fw=None`` draws no direct links (h = 0) and solves the blocked
    problem in closed form.  ``evaluate(chans, state)`` returns one trial's
    samples, each keyed by the result row it feeds: ``(table, variable,
    value, label, metric)``.  ``context`` names the point in warnings and errors.
    """

    scenario: NetworkScenario
    topo: RisTopology
    assignment: GroupAssignment
    weights: ObjectiveWeights
    fw: int | None
    evaluate: Callable[[object, TrialState], dict]
    context: str

    def __post_init__(self):
        self.assignment.validate(self.topo)


def _run_sweep(points: list[Point], seed: int, trials: int,
               z0: float) -> list[dict[object, list[float]]]:
    """Per point, the samples of every key its ``evaluate`` returns, one per trial.

    The points are grouped by (scenario, element count), compared by value,
    and each group is walked trial-major: trial t is drawn once, on substream
    ``stream_rng(seed, t)``, with direct links if any point of the group
    reads them; blocked points read a copy with h exactly zero.  Row factors
    are built once per trial for each (topology, assignment, weights)
    (:func:`_subproblems`).  Direct-link units are held in one solver
    batch, across trials and groups, while their Gram matrices (16 rows^2
    bytes per sub-problem of R's rows) fit ``BATCH_BYTES``; when the next one
    does not fit, the held units are solved together
    (:func:`_relaxed_solutions`), evaluated in order and released, and that
    unit opens the next batch.  A blocked point rides, at no cost in bytes,
    right after the first direct-link point of its group with its factors
    (its Gram matrix does not read h); without one it is solved when drawn.
    A draw whose retrieval or evaluation raises
    :class:`DegenerateChannelError` or :class:`SingularNetworkError` is
    redrawn for its point alone, on the trial's next attempt substream, and
    solved again on its own.  So each point's samples stay in trial order
    and do not depend on the other points of the sweep.  A point raises
    :class:`RedrawBudgetError` once its redraws exceed
    ``MAX_DEGENERATE_FRACTION`` of its trials (one redraw is always tolerated).
    """
    allowed = max(1, int(MAX_DEGENERATE_FRACTION * trials))
    redraws = [0] * len(points)
    samples: list[dict[object, list[float]]] = [{} for _ in points]

    def solve_and_evaluate(batch):
        solutions = _relaxed_solutions([unit for *_, unit in batch])
        for (p, t, chans, _), solution in zip(batch, solutions):
            point = points[p]
            for attempt in itertools.count(1):
                try:
                    metrics = point.evaluate(chans, _state_from_thetas(
                        solution, point.topo, point.assignment, z0))
                    break
                except (DegenerateChannelError, SingularNetworkError) as exc:
                    redraws[p] += 1
                    print(f"warning: {type(exc).__name__} at {point.context}; redrawing",
                          file=sys.stderr)
                    if redraws[p] > allowed:
                        raise RedrawBudgetError(
                            f"more than {MAX_DEGENERATE_FRACTION:.0%} degenerate "
                            f"trials at {point.context}") from exc
                    chans = sample_channels(point.scenario, point.topo.d,
                                            stream_rng(seed, t, attempt=attempt),
                                            point.fw is not None)
                    solution = _relaxed_solutions([(_subproblems(
                        chans, point.weights, point.topo, point.assignment),
                        point.topo.g, point.fw)])[0]
            for key, value in metrics.items():
                samples[p].setdefault(key, []).append(float(value))

    def shared(p):  # what a point's row factors read besides the draw
        return points[p].topo, points[p].assignment, points[p].weights

    groups: dict[tuple, list[int]] = {}
    for p, point in enumerate(points):
        groups.setdefault((point.scenario, point.topo.d), []).append(p)
    batch, size = [], 0
    for (scenario, d), members in groups.items():
        leaders = {}
        for p in members:
            if points[p].fw is not None:
                leaders.setdefault(shared(p), p)
        # each point the walk visits, in point order, with the blocked points riding on it
        walk = {p: [] for p in members if points[p].fw is not None or shared(p) not in leaders}
        for p in members:
            if p not in walk:
                walk[leaders[shared(p)]].append(p)
        direct = bool(leaders)
        zeroed = direct and any(points[p].fw is None for p in members)
        for t in range(trials):
            chans = sample_channels(scenario, d, stream_rng(seed, t), direct)
            blocked = chans.blocked() if zeroed else chans
            factors = {}
            for p, riders in walk.items():
                point = points[p]
                view = blocked if point.fw is None else chans
                if shared(p) not in factors:
                    factors[shared(p)] = _subproblems(view, point.weights, point.topo,
                                                      point.assignment)
                sub = factors[shared(p)]
                if point.fw is None:
                    solve_and_evaluate([(p, t, view, (sub, point.topo.g, None))])
                    continue
                nbytes = sum(16 * sum(r.size for *_, r in f) ** 2 for f in sub.values())
                if batch and size + nbytes > BATCH_BYTES:
                    solve_and_evaluate(batch)
                    batch, size = [], 0
                batch.append((p, t, chans, (sub, point.topo.g, point.fw)))
                batch += [(q, t, blocked, (sub, point.topo.g, None)) for q in riders]
                size += nbytes
    solve_and_evaluate(batch)
    return samples


class _Settings:
    """What every experiment reads of a validated config.

    An experiment is a list of grid points (:class:`Point`); :meth:`tabulate`
    runs them all in one sweep.
    """

    def __init__(self, cfg: dict):
        sim, op = cfg["simulation"], cfg["optimization"]
        self.trials, self.seed = int(sim["trials"]), int(sim["seed"])
        self.archs = tuple(sim["architectures"])
        self.params = circuit_params(cfg)
        self.cap_ranges = cap_ranges(cfg)
        self.bits = cfg["circuit"]["codebook_bits"]
        self.group_count = op["group_count"]
        self.fw = op["fw_iterations"]
        self.nu = tuple(tuple(map(float, row)) for row in op["user_weights"])

    def codebook(self, f: float) -> Codebook:
        return build_codebook(f, self.bits, *self.cap_ranges, self.params)

    def tabulate(self, points: list[Point]) -> dict[str, tuple[ResultRow, ...]]:
        """Tables of ``points``: each key of a point's samples (see
        :func:`_run_sweep`) becomes one row of the table it names, in point
        order and then key order."""
        tables: dict[str, list[ResultRow]] = {}
        for samples in _run_sweep(points, self.seed, self.trials, self.params.z0):
            for (table, *key), values in samples.items():
                tables.setdefault(table, []).append(
                    ResultRow(*key, *aggregate(values), self.trials, tuple(values)))
        return {name: tuple(rows) for name, rows in tables.items()}


# ---------------------------------------------------------------------------
# freq-response / target-shift: received power of one tracked user, served
# alone with the whole power budget, versus operating frequency.  The relaxed
# solve is frequency blind and done once per trial; freq-response re-projects
# it onto each frequency's codebook, target-shift holds the plan snapped onto
# each target frequency's codebook over that target's grid.

_TRACKED = ObjectiveWeights(mu=(1.0,), nu=((1.0,),))


def _tracked_points(s: _Settings, cfg: dict, key: str, rows, grid) -> list[Point]:
    """Points, one per (label, architecture, element count) in ``grid``, of the
    tracked user's received power: each ``(table, frequency_ghz, target_ghz)``
    of ``rows`` is that table's row at that frequency, snapped onto the target
    frequency's codebook (one built per target).  A trial is solved once for
    all rows, re-snapped where the target changes; direct links are blocked.
    """
    exp, pw = cfg["experiments"][key], cfg["power"]
    scenario = single_user_scenario(cfg, exp["tracked_bs"] - 1, exp["tracked_user"] - 1)
    power = PowerConfig(dbm_to_watts(pw["total_dbm"]), ((1.0,),),
                        dbm_to_watts(pw["noise_dbm"]))
    codebooks = {t: s.codebook(ghz(t)) for t in dict.fromkeys(t for *_, t in rows)}

    def evaluator(label: str):
        row_plans = [((table, "frequency_ghz", float(x), label, "received_power_w"), ghz(x),
                      codebooks[t]) for table, x, t in rows]

        def evaluate(chans, state):
            left, held, out = np.conj(chans.f[0]).T, None, {}
            for row_key, f, codebook in row_plans:
                if codebook is not held:
                    held, plan = codebook, state.plan({0: codebook})
                theta_rows = scattering_from_capacitances(plan, f, s.params, left)
                out[row_key] = evaluate_received_powers(chans, [theta_rows], power)[0][0]
            return out
        return evaluate

    points = []
    for label, arch, d in grid:
        topo = topology_for(arch, d, s.group_count)
        points.append(Point(scenario, topo, GroupAssignment.single(0, topo), _TRACKED, None,
                            evaluator(label), f"{key} {label}"))
    return points


def freq_response(cfg: dict) -> dict[str, tuple[ResultRow, ...]]:
    s, exp = _Settings(cfg), cfg["experiments"]["freq-response"]
    return s.tabulate(_tracked_points(
        s, cfg, "freq-response", [("freq_response", f, f) for f in ghz_grid(**exp["grid_ghz"])],
        [(f"{arch} D={d}", arch, d) for d in exp["d_values"] for arch in s.archs]))


def target_shift(cfg: dict) -> dict[str, tuple[ResultRow, ...]]:
    s, exp = _Settings(cfg), cfg["experiments"]["target-shift"]
    half = exp["half_span_ghz"]
    return s.tabulate(_tracked_points(s, cfg, "target-shift", [
        (table_name("target-shift", t), f, t) for t in exp["targets_ghz"]
        for f in ghz_grid(t - half, t + half, exp["step_ghz"])],
        [(arch, arch, exp["d"]) for arch in s.archs]))


# ---------------------------------------------------------------------------
# per-bs-power / network-power: received sum power versus element count for
# several base-station weight sets, with blocked or available direct links.


def _power_experiment(cfg: dict, key: str) -> dict[str, tuple[ResultRow, ...]]:
    """One table per (weight set, link mode): per-bs-power samples each base
    station's sum power, network-power their network sum."""
    s, exp = _Settings(cfg), cfg["experiments"][key]
    scenario, power = base_scenario(cfg), power_config(cfg)
    freqs = tuple(ghz(f) for f in cfg["scenario"]["frequencies_ghz"])
    codebooks = {b: s.codebook(f) for b, f in enumerate(freqs)}
    preferred = ghz(cfg["optimization"]["target_frequency_ghz"])

    def evaluator(table: str, arch: str, d: int):
        def evaluate(chans, state):
            plan = state.plan(codebooks)
            rows = [scattering_from_capacitances(plan, f, s.params, np.conj(chans.f[b]).T)
                    for b, f in enumerate(freqs)]
            per_bs = [sum(users) for users in evaluate_received_powers(chans, rows, power)]
            if key == "network-power":
                return {(table, "elements", d, arch, "network_sum_power_w"): sum(per_bs)}
            return {(table, "elements", d, arch, f"sum_power_bs{b + 1}_w"): v
                    for b, v in enumerate(per_bs)}
        return evaluate

    points = []
    for weight_set in exp["weight_sets"]:
        weights = ObjectiveWeights(mu=tuple(map(float, weight_set)), nu=s.nu)
        for mode in exp["link_modes"]:
            table = table_name(key, weight_set, mode)
            for arch in s.archs:
                for d in exp["d_grid"]:
                    topo = topology_for(arch, d, s.group_count)
                    assignment = (
                        GroupAssignment.single(fc_target_bs(weights, freqs, preferred), topo)
                        if topo.g == 1 else priority_assignment(weights, topo))
                    points.append(Point(scenario, topo, assignment, weights,
                                        s.fw if mode == AVAILABLE else None,
                                        evaluator(table, arch, int(d)),
                                        f"{arch} D={d} {mode}"))
    return s.tabulate(points)


def per_bs_power(cfg: dict) -> dict[str, tuple[ResultRow, ...]]:
    return _power_experiment(cfg, "per-bs-power")


def network_power(cfg: dict) -> dict[str, tuple[ResultRow, ...]]:
    return _power_experiment(cfg, "network-power")


# ---------------------------------------------------------------------------
# interference: the surface is dedicated to one base station while a victim
# base station, unaware of it, zero-forces against outdated (surface-free)
# channel estimates.


def interference(cfg: dict) -> dict[str, tuple[ResultRow, ...]]:
    s, exp = _Settings(cfg), cfg["experiments"]["interference"]
    victim = exp["victim_bs"] - 1
    aided = aided_bs(victim)
    freqs = [ghz(f) for f in cfg["scenario"]["frequencies_ghz"]]
    freqs[victim] = ghz(exp["interferer_frequency_ghz"])
    weights = ObjectiveWeights(mu=tuple(float(b == aided) for b in range(len(freqs))),
                               nu=s.nu)
    codebook = s.codebook(freqs[aided])
    power = power_config(cfg)
    metric = f"sum_se_bs{victim + 1}"

    def evaluator(table: str, arch: str, d: int):
        def evaluate(chans, state):
            rows = scattering_from_capacitances(state.plan({aided: codebook}), freqs[victim],
                                                s.params, np.conj(chans.f[victim]).T)
            out = {(table, "elements", d, arch, metric):
                   sum_spectral_efficiency_outdated(chans, victim, rows, power)}
            if arch == s.archs[0]:  # surface-free, so only the first architecture emits it
                out[table, "elements", d, "interference-free", metric] = \
                    sum_spectral_efficiency_outdated(chans, victim, np.zeros_like(rows), power)
            return out
        return evaluate

    points = []
    for position in exp["ris_positions_m"]:
        scenario = base_scenario(cfg, ris_position=tuple(map(float, position)))
        table = table_name("interference", position)
        for arch in s.archs:
            for d in exp["d_grid"]:
                topo = topology_for(arch, d, s.group_count)
                points.append(Point(scenario, topo, GroupAssignment.single(aided, topo),
                                    weights, s.fw, evaluator(table, arch, int(d)),
                                    f"interference {arch} D={d} at {position}"))
    return s.tabulate(points)


RUNNERS = {
    "freq-response": freq_response,
    "target-shift": target_shift,
    "per-bs-power": per_bs_power,
    "network-power": network_power,
    "interference": interference,
}
