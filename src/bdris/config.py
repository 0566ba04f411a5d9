"""Experiment configuration: defaults, YAML loading, unit conversion, validation.

Config files are YAML with nested sections.  Values carry human units in
their key names (GHz, pF, nH, dBm, m) and are converted to SI at parse time;
everything downstream of this module is SI.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import re

import numpy as np
import yaml

from .channel import AVAILABLE, BLOCKED, NetworkScenario, PowerConfig, _dist, path_gain
from .circuit import CircuitParams
from .errors import ConfigError

ARCHITECTURES = ("fully-connected", "group-connected", "single-connected")
MAX_GRID_STEPS = 100_000  # validation rejects a finer frequency grid unbuilt


def ghz(x) -> float:
    return float(x) * 1e9


def picofarad(x) -> float:
    return float(x) * 1e-12


def nanohenry(x) -> float:
    return float(x) * 1e-9


def ghz_grid(start, stop, step) -> np.ndarray:
    """GHz values from ``start`` to ``stop`` inclusive in steps of ``step``."""
    return np.round(np.arange(float(start), float(stop) + float(step) / 2.0,
                              float(step)), 9)


def dbm_to_watts(x) -> float:
    return 10.0 ** ((float(x) - 30.0) / 10.0)


def _deep_merge(base: dict, update: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


class _Loader(yaml.SafeLoader):
    """The one loader of config texts: ``yaml.safe_load``'s YAML 1.1, except that
    exponent forms without a dot or sign (``1e-3``, ``1E5``) read as floats."""

    def compose_node(self, parent, index):  # an alias inside its own anchor: no walk ends
        event = self.peek_event()  # a collection's end mark is set once it is composed
        if isinstance(event, yaml.AliasEvent) and not getattr(
                self.anchors.get(event.anchor), "end_mark", True):
            raise yaml.composer.ComposerError(
                None, None, f"found recursive alias {event.anchor!r}", event.start_mark)
        return super().compose_node(parent, index)


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"), "-+0123456789.")


def _walk_lines(node, prefix: str, lines: dict, source: str):
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            path = f"{prefix}.{key_node.value}" if prefix else str(key_node.value)
            if path in lines:  # a plain load would keep only the last one
                raise ConfigError(f"{source}:{key_node.start_mark.line + 1}: {path}: repeated key")
            lines[path] = key_node.start_mark.line + 1
            _walk_lines(value_node, path, lines, source)


def load_yaml_with_lines(text: str, source: str) -> tuple[object, dict]:
    """Parse one YAML text once: its data and the line of every dotted key path.
    Malformed YAML and repeated keys raise :class:`ConfigError` naming ``source`` and line."""
    lines: dict = {}
    try:
        loader = _Loader(text)  # rejects non-printable characters
        root = loader.get_single_node()
        _walk_lines(root, "", lines, source)
        return (None if root is None else loader.construct_document(root)), lines
    except yaml.MarkedYAMLError as exc:
        problem = ", ".join(filter(None, (exc.context, exc.problem)))
        raise ConfigError(f"{source}:{exc.problem_mark.line + 1}: {problem}")
    except yaml.reader.ReaderError as exc:  # exc.character is a code point
        line = text.count("\n", 0, exc.position) + 1
        raise ConfigError(f"{source}:{line}: unacceptable character #x{exc.character:04x}")


with open(os.path.join(os.path.dirname(__file__), "default.yaml"), encoding="utf-8") as _fh:
    DEFAULT_CONFIG: dict = load_yaml_with_lines(_fh.read(), "default.yaml")[0]


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply ``dotted.path=value`` overrides; values are parsed as YAML."""
    out = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        path, raw = item.split("=", 1)
        keys = path.strip().split(".")
        target = out
        for i, key in enumerate(keys[:-1]):
            target = target.setdefault(key, {})
            if not isinstance(target, dict):
                raise ConfigError(f"override {item!r}: {'.'.join(keys[:i + 1])} "
                                  f"is not a mapping")
        target[keys[-1]] = load_yaml_with_lines(raw, f"override {item!r}")[0]
    return out


def load_config(path: str | None = None, overrides: list[str] | None = None
                ) -> tuple[dict, dict, str]:
    """Resolved config (defaults merged with the file and overrides).

    Returns (config, key line map, source label for messages).
    """
    user, lines, source = None, {}, "<defaults>"
    if path is not None:
        source = str(path)
        try:
            with open(path, encoding="utf-8") as fh:
                user, lines = load_yaml_with_lines(fh.read(), source)
        except UnicodeDecodeError as exc:  # read() decodes the whole file at once
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise ConfigError(f"{source}:{line}: not UTF-8 text ({exc.reason})")
        if not isinstance(user, (dict, type(None))):
            raise ConfigError(f"{source}: top level of a config file must be a mapping")
    return apply_overrides(_deep_merge(DEFAULT_CONFIG, user or {}), overrides or []), lines, source


def config_hash(cfg: dict) -> str:
    """Stable hash of the fully resolved configuration."""
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _kind(default, many: bool = False) -> str:
    if isinstance(default, list):
        return ("lists of " if many else "a list of ") + _kind(default[0], True)
    return {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
            str: ("a string", "strings"), dict: ("a mapping", "mappings")}[type(default)][many]


def _fits(value, default, known: dict) -> bool:
    """Whether ``value`` has ``default``'s type; each list entry, its first entry's.
    ``known`` holds the answer for each (value, list default) pair already checked, keyed
    by identity, so a list that YAML aliases repeat is checked once."""
    if isinstance(default, list):
        key = (id(value), id(default))
        if key not in known:
            known[key] = isinstance(value, list) and all(_fits(v, default[0], known)
                                                         for v in value)
        return known[key]
    if isinstance(default, float):  # an int too large for a float is not finite
        return type(value) in (int, float) and _holds(lambda: math.isfinite(value))
    return type(value) is type(default)


def _check_against(require, value, default, known: dict, path: str = ""):
    """Report unknown and missing keys, and every value that does not fit its default
    (``known``: see :func:`_fits`)."""
    if require(_fits(value, default, known), path, "must be " + _kind(default)) \
            and isinstance(default, dict):
        for key in [*value, *(k for k in default if k not in value)]:
            sub = f"{path}.{key}" if path else str(key)
            if require(key in default, sub, "unknown key") and require(
                    key in value, sub, "missing key"):
                _check_against(require, value[key], default[key], known, sub)


def _holds(test) -> bool:
    """Whether ``test()`` is true; a computation that fails on arithmetic or a value is not."""
    try:
        return bool(test())
    except (ArithmeticError, ValueError):
        return False


def _gainless(p, others, eta) -> bool:
    """Whether a link from ``p`` to one of ``others`` lacks a positive :func:`path_gain`."""
    return not _holds(lambda: all(path_gain(_dist(p, q), eta) > 0 for q in others))


def _grid_fills(start, stop, step) -> bool:
    """Whether :func:`ghz_grid` gives frequencies in ``MAX_GRID_STEPS`` steps, the first
    above 0 and every one finite in Hz.  The stop and the steps are checked before the
    grid is built, and an overflow while building it fails instead of warning."""
    def first_above_zero():
        with np.errstate(over="raise"):  # a point past the stop may still overflow
            return (ghz_grid(start, stop, step)[:1] > 0).any()
    return _holds(lambda: ghz(stop) < math.inf and stop - start <= MAX_GRID_STEPS * step
                  and first_above_zero())


def validate_config(cfg: dict, source: str = "<config>", lines: dict | None = None) -> list[str]:
    """Check every invariant the pipeline relies on; return error messages. Each value
    must first have the type of its default in ``default.yaml``; the rules then check values."""
    errors: list[str] = []

    def require(condition, path: str, message: str) -> bool:
        if not condition:
            line = (lines or {}).get(path)
            errors.append(f"{source}{f':{line}' if line else ''}: {path}: {message}")
        return bool(condition)

    _check_against(require, cfg, DEFAULT_CONFIG, {})
    if errors:
        return errors

    sc, ci, op, pw = cfg["scenario"], cfg["circuit"], cfg["optimization"], cfg["power"]
    sim, exps = cfg["simulation"], cfg["experiments"]
    fr, ts, itf = exps["freq-response"], exps["target-shift"], exps["interference"]
    bs, users, freqs = sc["bs_positions_m"], sc["user_positions_m"], sc["frequencies_ghz"]
    layout = [len(u) for u in users]
    k_max = max(layout, default=0)
    user_points = [p for u in users for p in u]
    require(len(bs) >= 1, "scenario.bs_positions_m", "need at least one base station")
    require(len(users) == len(bs), "scenario.user_positions_m",
            "need one user list per base station")
    require(len(freqs) == len(bs) and all(0 < ghz(f) < math.inf for f in freqs),
            "scenario.frequencies_ghz", "need one operating frequency per base station, "
            "> 0 and finite in Hz")
    for b, k in enumerate(layout):
        require(k >= 1, "scenario.user_positions_m",
                f"base station {b + 1} needs at least one user")
    points_ok = all([require(all(len(p) == 2 for p in points), path,
                             "positions must be finite (x, y) pairs")
                     for path, points in (("scenario.bs_positions_m", bs),
                                          ("scenario.user_positions_m", user_points),
                                          ("scenario.ris_position_m", [sc["ris_position_m"]]))])
    require(sc["m_antennas"] >= 1, "scenario.m_antennas", "must be a positive integer")
    require(sc["m_antennas"] >= k_max, "scenario.m_antennas",
            "zero-forcing needs at least as many antennas as users per base station")
    for key in ("eta_direct", "eta_reflected"):
        require(sc[key] > 0, f"scenario.{key}", "must be > 0")

    for key in ("r_ohm", "l_nh", "r_tilde_ohm", "l_tilde_nh"):
        require(ci[key] >= 0, f"circuit.{key}", "must be >= 0")
    for key in ("l0_nh", "l0_tilde_nh", "z0_ohm"):
        require(ci[key] > 0, f"circuit.{key}", "must be > 0")
    for key in ("self_cap_range_pf", "inter_cap_range_pf"):
        require(len(ci[key]) == 2 and 0 < ci[key][0] < ci[key][1], f"circuit.{key}",
                "must be a positive increasing pair")
    require(ci["codebook_bits"] >= 1, "circuit.codebook_bits", "must be an integer >= 1")

    nu = op["user_weights"]
    nu_ok = require(len(nu) == len(users) and all(len(row) == k and all(w >= 0 for w in row)
                                                  for row, k in zip(nu, layout)),
                    "optimization.user_weights",
                    "need one weight >= 0 per user, matching the scenario layout")
    require(op["target_frequency_ghz"] in [float(f) for f in freqs],
            "optimization.target_frequency_ghz", "must be one of scenario.frequencies_ghz")
    require(op["fw_iterations"] >= 1, "optimization.fw_iterations", "must be an integer >= 1")
    require(op["fw_step_rule"] in ("line-search", "diminishing"), "optimization.fw_step_rule",
            "must be 'line-search' or 'diminishing'")
    g = op["group_count"]
    require(g >= 1, "optimization.group_count", "must be an integer >= 1")

    for key in ("total_dbm", "noise_dbm"):  # the run's conversion, which may overflow
        require(_holds(lambda: 0 < dbm_to_watts(pw[key]) < math.inf), f"power.{key}",
                "must convert to a finite power > 0 in watts")
    alpha = pw["alpha"]
    if require(len(alpha) == len(users) and all(len(row) == k for row, k in zip(alpha, layout)),
               "power.alpha", "need one power fraction per user"):
        for b, row in enumerate(alpha):
            require(all(a >= 0 for a in row) and sum(row) <= 1 + 1e-12, "power.alpha",
                    f"base station {b + 1} fractions must be >= 0 and sum to <= 1")

    require(sim["trials"] >= 1, "simulation.trials", "must be an integer >= 1")
    require(sim["seed"] >= 0, "simulation.seed", "must be an integer >= 0")
    archs = sim["architectures"]
    require(archs and all(a in ARCHITECTURES for a in archs), "simulation.architectures",
            f"entries must be among {ARCHITECTURES}")

    d_lists = {f"experiments.{name}.{key}": exps[name][key] for name, key in (
        ("per-bs-power", "d_grid"), ("network-power", "d_grid"), ("interference", "d_grid"),
        ("freq-response", "d_values"))}
    for path, ds in d_lists.items():
        require(ds and all(d >= 1 for d in ds), path,
                "must be a non-empty list of positive integers")
    require(ts["d"] >= 1, "experiments.target-shift.d", "must be a positive integer")
    for d in [d for ds in d_lists.values() for d in ds] + [ts["d"]]:
        require(g < 1 or "group-connected" not in archs or d < 1 or d % g == 0,
                "optimization.group_count",
                f"group count {g} must divide every element count (found D={d})")
    start, stop, step = (fr["grid_ghz"][k] for k in ("start", "stop", "step"))
    if require(step > 0 and start > 0 and stop >= start, "experiments.freq-response.grid_ghz",
               "need positive start/stop/step with stop >= start"):
        require(_grid_fills(start, stop, step), "experiments.freq-response.grid_ghz",
                f"must give at least one frequency, the first > 0 and all finite in Hz, "
                f"in at most {MAX_GRID_STEPS} steps")
    step_ok = require(ts["step_ghz"] > 0, "experiments.target-shift.step_ghz", "must be > 0")
    half = ts["half_span_ghz"]
    half_ok = require(half > 0, "experiments.target-shift.half_span_ghz", "must be > 0")
    targets = ts["targets_ghz"]
    if require(targets and all(t > (half if half_ok else 0) for t in targets),
               "experiments.target-shift.targets_ghz",
               "must be a non-empty list of frequencies above half_span_ghz") and step_ok:
        for t in targets:
            require(_grid_fills(t - half, t + half, ts["step_ghz"]),
                    "experiments.target-shift.targets_ghz", f"the grid around {t} must give "
                    f"at least one frequency, the first > 0 and all finite in Hz, "
                    f"in at most {MAX_GRID_STEPS} steps")
    for name in ("freq-response", "target-shift"):
        tb, tu = exps[name]["tracked_bs"], exps[name]["tracked_user"]
        if require(1 <= tb <= len(layout), f"experiments.{name}.tracked_bs",
                   "must be a 1-based base station index"):
            require(1 <= tu <= layout[tb - 1], f"experiments.{name}.tracked_user",
                    f"must be a 1-based index of base station {tb}'s users")
    # The group-connected and single-connected surfaces split their groups over
    # the base stations a set weights; a fully-connected one serves them jointly.
    split = any(a != "fully-connected" for a in archs)
    for name in ("per-bs-power", "network-power"):
        ws, modes = exps[name]["weight_sets"], exps[name]["link_modes"]
        ws_ok = require(ws and all(len(w) == len(bs) and all(x >= 0 for x in w)
                                   and any(x > 0 for x in w) for w in ws),
                        f"experiments.{name}.weight_sets",
                        "each set needs one weight >= 0 per base station, not all zero")
        for i, w in enumerate(ws if ws_ok and nu_ok else []):
            served = [any(v > 0 for v in row) for x, row in zip(w, nu) if x > 0]
            require(all(served) if split else any(served), f"experiments.{name}.weight_sets",
                    f"set {i + 1}: {'every' if split else 'some'} base station it weights "
                    f"needs a positive weight in optimization.user_weights")
        grid = [d for d in exps[name]["d_grid"] if d >= 1]
        groups = min(([g] if g >= 1 and "group-connected" in archs else [])
                     + (grid if "single-connected" in archs else []), default=len(bs))
        for i, w in enumerate(ws if ws_ok else []):
            require(sum(x > 0 for x in w) <= groups, f"experiments.{name}.weight_sets",
                    f"set {i + 1} weights more base stations than the {groups} groups "
                    f"a split surface divides among them")
        require(modes and all(mode in (BLOCKED, AVAILABLE) for mode in modes),
                f"experiments.{name}.link_modes", f"entries must be '{BLOCKED}' or '{AVAILABLE}'")
        # F_b^H Theta G_b has rank <= D: zero-forcing K_b users needs D >= K_b
        few = [d for d in grid if d < k_max]
        require(BLOCKED not in modes or not few, f"experiments.{name}.d_grid",
                f"blocked links zero-force {k_max} users of a base station only "
                f"with D >= {k_max} elements (found D={few})")
    pos = itf["ris_positions_m"]
    pos_ok = require(pos and all(len(p) == 2 for p in pos),
                     "experiments.interference.ris_positions_m",
                     "must be a non-empty list of finite (x, y) positions")
    for b, (p, u) in enumerate(zip(bs, users) if points_ok and sc["eta_direct"] > 0 else []):
        require(not _gainless(p, u, sc["eta_direct"]), "scenario.user_positions_m",
                f"a user of base station {b + 1} has no finite, positive path gain from it")
    for path, surfaces in (("scenario.ris_position_m", [sc["ris_position_m"]]),
                           ("experiments.interference.ris_positions_m", pos if pos_ok else [])):
        for p in surfaces if points_ok and sc["eta_reflected"] > 0 else []:
            require(not _gainless(p, bs + user_points, sc["eta_reflected"]), path,
                    f"the surface at {p} has no finite, positive path gain to some "
                    f"base station or user")
    require(0 < ghz(itf["interferer_frequency_ghz"]) < math.inf,
            "experiments.interference.interferer_frequency_ghz", "must be > 0 and finite in Hz")
    victim = itf["victim_bs"]
    if require(1 <= victim <= len(bs), "experiments.interference.victim_bs",
               "must be a 1-based base station index"):
        aided = aided_bs(victim - 1) + 1
        if require(aided <= len(bs), "experiments.interference.victim_bs",
                   "interference needs a second base station, which the surface aids"):
            require(not nu_ok or any(w > 0 for w in nu[aided - 1]), "optimization.user_weights",
                    f"base station {aided}, which interference aids, needs a positive weight")
    return errors


# ---------------------------------------------------------------------------
# Typed views over a validated config


def circuit_params(cfg: dict) -> CircuitParams:
    ci = cfg["circuit"]
    return CircuitParams(
        r=float(ci["r_ohm"]), l0=nanohenry(ci["l0_nh"]), l=nanohenry(ci["l_nh"]),
        r_tilde=float(ci["r_tilde_ohm"]), l0_tilde=nanohenry(ci["l0_tilde_nh"]),
        l_tilde=nanohenry(ci["l_tilde_nh"]), z0=float(ci["z0_ohm"]),
    )


def cap_ranges(cfg: dict) -> tuple[tuple[float, float], tuple[float, float]]:
    return tuple(tuple(map(picofarad, cfg["circuit"][key]))
                 for key in ("self_cap_range_pf", "inter_cap_range_pf"))


def aided_bs(victim: int) -> int:
    """Base station the interference experiment's surface aids: the first one
    other than the victim (both 0-based)."""
    return 1 if victim == 0 else 0


def base_scenario(cfg: dict, direct_links: str,
                  ris_position: tuple[float, float] | None = None,
                  frequencies: tuple[float, ...] | None = None) -> NetworkScenario:
    sc = cfg["scenario"]
    return NetworkScenario(
        bs_positions=tuple(tuple(map(float, p)) for p in sc["bs_positions_m"]),
        user_positions=tuple(tuple(tuple(map(float, u)) for u in users)
                             for users in sc["user_positions_m"]),
        ris_position=tuple(map(float, ris_position if ris_position is not None
                               else sc["ris_position_m"])),
        m=int(sc["m_antennas"]),
        frequencies=frequencies if frequencies is not None
        else tuple(ghz(f) for f in sc["frequencies_ghz"]),
        eta_direct=float(sc["eta_direct"]),
        eta_reflected=float(sc["eta_reflected"]),
        direct_links=direct_links,
    )


def single_user_scenario(cfg: dict, bs: int, user: int, frequency: float,
                         direct_links: str) -> NetworkScenario:
    """Scenario reduced to one base station serving one of its users."""
    full = base_scenario(cfg, direct_links)
    return dataclasses.replace(full, bs_positions=(full.bs_positions[bs],),
                               user_positions=((full.user_positions[bs][user],),),
                               frequencies=(frequency,))


def power_config(cfg: dict, scenario: NetworkScenario) -> PowerConfig:
    """Power budget of ``power``, whose alpha layout must match the scenario's."""
    pw = cfg["power"]
    alpha = tuple(tuple(map(float, row)) for row in pw["alpha"])
    if tuple(map(len, alpha)) != scenario.users_per_bs:
        raise ValueError(f"power.alpha layout {tuple(map(len, alpha))} does not match "
                         f"the scenario's users per base station {scenario.users_per_bs}")
    return PowerConfig(p=dbm_to_watts(pw["total_dbm"]), alpha=alpha,
                       noise=dbm_to_watts(pw["noise_dbm"]))
