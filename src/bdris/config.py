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
import os
import re

import numpy as np
import yaml

from .channel import AVAILABLE, BLOCKED, NetworkScenario, PowerConfig, _dist, path_gain
from .circuit import CircuitParams
from .errors import ConfigError

ARCHITECTURES = ("fully-connected", "group-connected", "single-connected")


def ghz(x) -> float:
    return float(x) * 1e9


def picofarad(x) -> float:
    return float(x) * 1e-12


def nanohenry(x) -> float:
    return float(x) * 1e-9


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


class _Check:
    def __init__(self, source: str, lines: dict):
        self.source = source
        self.lines = lines
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        line = self.lines.get(path)
        anchor = f"{self.source}:{line}" if line else self.source
        self.errors.append(f"{anchor}: {path}: {message}")

    def require(self, condition: bool, path: str, message: str) -> bool:
        if not condition:
            self.fail(path, message)
        return bool(condition)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x)


def _is_point(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))


def _gainless(p, others, eta) -> bool:
    """Whether a drawn link from point ``p`` to one of ``others`` lacks a finite, positive
    :func:`~bdris.channel.path_gain` at ``eta``; invalid input is left to its own rules."""
    try:
        return _is_number(eta) and eta > 0 and _is_point(p) and any(
            _is_point(q) and not path_gain(_dist(p, q), eta) > 0 for q in others)
    except ValueError:
        return True


def _has_bool(x) -> bool:
    return isinstance(x, bool) or isinstance(x, list) and any(map(_has_bool, x))


def _check_against(chk: _Check, cfg: dict, defaults: dict, prefix: str = ""):
    """Report keys the defaults lack, mappings and lists given as another type,
    and booleans, which no key takes (``true`` would pass as the integer 1)."""
    for key, value in cfg.items():
        path, default = f"{prefix}{key}", defaults.get(key)
        if key not in defaults:
            chk.fail(path, "unknown key")
        elif isinstance(default, dict) and isinstance(value, dict):
            _check_against(chk, value, default, path + ".")
        elif isinstance(default, (dict, list)) and not isinstance(value, type(default)):
            chk.fail(path, "must be a " + ("mapping" if isinstance(default, dict) else "list"))
        elif _has_bool(value):
            chk.fail(path, "must not be a boolean")


def validate_config(cfg: dict, source: str = "<config>", lines: dict | None = None) -> list[str]:
    """Check every invariant the pipeline relies on; return error messages."""
    chk = _Check(source, lines or {})
    _check_against(chk, cfg, DEFAULT_CONFIG)
    if chk.errors:  # the checks below rely on the defaults' layout
        return chk.errors

    sc = cfg.get("scenario", {})
    bs = sc.get("bs_positions_m", [])
    users = sc.get("user_positions_m", [])
    layout = [len(u) if isinstance(u, list) else 0 for u in users]
    k_max = max(layout, default=0)
    user_points = [p for u in users if isinstance(u, list) for p in u]
    freqs = sc.get("frequencies_ghz", [])
    chk.require(len(bs) >= 1, "scenario.bs_positions_m", "need at least one base station")
    chk.require(len(users) == len(bs),
                "scenario.user_positions_m", "need one user list per base station")
    chk.require(len(freqs) == len(bs) and all(_is_number(f) and f > 0 for f in freqs),
                "scenario.frequencies_ghz",
                "need one operating frequency > 0 per base station")
    for b, k in enumerate(layout):
        chk.require(k >= 1, "scenario.user_positions_m",
                    f"base station {b + 1} needs at least one user")
    for path, points in (("scenario.bs_positions_m", bs),
                         ("scenario.user_positions_m", user_points),
                         ("scenario.ris_position_m", [sc.get("ris_position_m")])):
        chk.require(all(map(_is_point, points)), path, "positions must be finite (x, y) pairs")
    m = sc.get("m_antennas", 0)
    chk.require(isinstance(m, int) and m >= 1, "scenario.m_antennas", "must be a positive integer")
    chk.require(not isinstance(m, int) or m >= k_max, "scenario.m_antennas",
                "zero-forcing needs at least as many antennas as users per base station")
    for key in ("eta_direct", "eta_reflected"):
        chk.require(_is_number(sc.get(key)) and sc.get(key) > 0, f"scenario.{key}", "must be > 0")

    ci = cfg.get("circuit", {})
    for key in ("r_ohm", "l_nh", "r_tilde_ohm", "l_tilde_nh"):
        chk.require(_is_number(ci.get(key)) and ci.get(key) >= 0, f"circuit.{key}", "must be >= 0")
    for key in ("l0_nh", "l0_tilde_nh", "z0_ohm"):
        chk.require(_is_number(ci.get(key)) and ci.get(key) > 0, f"circuit.{key}", "must be > 0")
    for key in ("self_cap_range_pf", "inter_cap_range_pf"):
        rng = ci.get(key, [])
        ok = len(rng) == 2 and all(_is_number(x) for x in rng) and 0 < rng[0] < rng[1]
        chk.require(ok, f"circuit.{key}", "must be a positive increasing pair")
    bits = ci.get("codebook_bits", 0)
    chk.require(isinstance(bits, int) and bits >= 1, "circuit.codebook_bits",
                "must be an integer >= 1")

    op = cfg.get("optimization", {})
    nu = op.get("user_weights", [])
    nu_ok = chk.require(
        len(nu) == len(users) and all(
            isinstance(row, list) and len(row) == k and all(_is_number(w) and w >= 0 for w in row)
            for row, k in zip(nu, layout)),
        "optimization.user_weights", "need one weight >= 0 per user, matching the scenario layout")
    target = op.get("target_frequency_ghz")
    chk.require(_is_number(target) and target in [float(f) for f in freqs if _is_number(f)],
                "optimization.target_frequency_ghz",
                "must be one of scenario.frequencies_ghz")
    iters = op.get("fw_iterations", 0)
    chk.require(isinstance(iters, int) and iters >= 1, "optimization.fw_iterations",
                "must be an integer >= 1")
    chk.require(op.get("fw_step_rule") in ("line-search", "diminishing"),
                "optimization.fw_step_rule",
                "must be 'line-search' or 'diminishing'")
    g = op.get("group_count", 0)
    chk.require(isinstance(g, int) and g >= 1, "optimization.group_count",
                "must be an integer >= 1")

    pw = cfg.get("power", {})
    for key in ("total_dbm", "noise_dbm"):
        chk.require(_is_number(pw.get(key)), f"power.{key}", "must be a finite number")
    alpha = pw.get("alpha", [])
    alpha_ok = chk.require(
        len(alpha) == len(users)
        and all(isinstance(row, list) and len(row) == k for row, k in zip(alpha, layout)),
        "power.alpha", "need one power fraction per user")
    for b, row in enumerate(alpha if alpha_ok else []):
        chk.require(all(_is_number(a) and a >= 0 for a in row) and sum(row) <= 1 + 1e-12,
                    "power.alpha", f"base station {b + 1} fractions must be >= 0 and sum to <= 1")

    sim = cfg.get("simulation", {})
    chk.require(isinstance(sim.get("trials"), int) and sim.get("trials") >= 1,
                "simulation.trials", "must be an integer >= 1")
    chk.require(isinstance(sim.get("seed"), int), "simulation.seed", "must be an integer")
    archs = sim.get("architectures", [])
    chk.require(archs and all(a in ARCHITECTURES for a in archs),
                "simulation.architectures", f"entries must be among {ARCHITECTURES}")

    exps = cfg.get("experiments", {})
    all_d: list[int] = []
    for name in ("per-bs-power", "network-power", "interference"):
        grid = exps.get(name, {}).get("d_grid", [])
        chk.require(grid and all(isinstance(d, int) and d >= 1 for d in grid),
                    f"experiments.{name}.d_grid", "must be a non-empty list of positive integers")
        all_d.extend(d for d in grid if isinstance(d, int))
    fr = exps.get("freq-response", {})
    dv = fr.get("d_values", [])
    chk.require(dv and all(isinstance(d, int) and d >= 1 for d in dv),
                "experiments.freq-response.d_values",
                "must be a non-empty list of positive integers")
    all_d.extend(d for d in dv if isinstance(d, int))
    ts_d = exps.get("target-shift", {}).get("d", 0)
    chk.require(isinstance(ts_d, int) and ts_d >= 1, "experiments.target-shift.d",
                "must be a positive integer")
    all_d.append(ts_d if isinstance(ts_d, int) else 0)
    if isinstance(g, int) and g >= 1 and "group-connected" in archs:
        for d in all_d:
            if d >= 1 and d % g:
                chk.fail("optimization.group_count",
                         f"group count {g} must divide every element count (found D={d})")
    grid_spec = fr.get("grid_ghz", {})
    grid_ok = (all(_is_number(grid_spec.get(k)) for k in ("start", "stop", "step"))
               and grid_spec.get("step", 0) > 0
               and grid_spec.get("start", 0) > 0
               and grid_spec.get("stop", 0) >= grid_spec.get("start", 1))
    chk.require(grid_ok, "experiments.freq-response.grid_ghz",
                "need positive start/stop/step with stop >= start")
    ts = exps.get("target-shift", {})
    chk.require(_is_number(ts.get("step_ghz")) and ts.get("step_ghz", 0) > 0,
                "experiments.target-shift.step_ghz", "must be > 0")
    half = ts.get("half_span_ghz")
    half_ok = chk.require(_is_number(half) and half > 0,
                          "experiments.target-shift.half_span_ghz", "must be > 0")
    targets = ts.get("targets_ghz", [])
    chk.require(targets and all(_is_number(t) and t > (half if half_ok else 0) for t in targets),
                "experiments.target-shift.targets_ghz",
                "must be a non-empty list of frequencies above half_span_ghz")
    for name in ("freq-response", "target-shift"):
        tracked = exps.get(name, {})
        tb, tu = tracked.get("tracked_bs"), tracked.get("tracked_user")
        if chk.require(isinstance(tb, int) and 1 <= tb <= len(layout),
                       f"experiments.{name}.tracked_bs", "must be a 1-based base station index"):
            chk.require(isinstance(tu, int) and 1 <= tu <= layout[tb - 1],
                        f"experiments.{name}.tracked_user",
                        f"must be a 1-based index of base station {tb}'s users")
    # The group-connected and single-connected surfaces split their groups over
    # the base stations a set weights; a fully-connected one serves them jointly.
    split = any(a != "fully-connected" for a in archs)
    for name in ("per-bs-power", "network-power"):
        ws = exps.get(name, {}).get("weight_sets", [])
        ws_ok = chk.require(
            ws and all(isinstance(w, list) and len(w) == len(bs)
                       and all(_is_number(x) and x >= 0 for x in w) and any(x > 0 for x in w)
                       for w in ws),
            f"experiments.{name}.weight_sets",
            "each set needs one weight >= 0 per base station, not all zero")
        for i, w in enumerate(ws if ws_ok and nu_ok else []):
            served = [any(v > 0 for v in row) for x, row in zip(w, nu) if x > 0]
            chk.require(all(served) if split else any(served), f"experiments.{name}.weight_sets",
                        f"set {i + 1}: {'every' if split else 'some'} base station it weights "
                        f"needs a positive weight in optimization.user_weights")
        grid = [d for d in exps.get(name, {}).get("d_grid", []) if isinstance(d, int) and d >= 1]
        groups = min(([g] if isinstance(g, int) and g >= 1 and "group-connected" in archs
                      else []) + (grid if "single-connected" in archs else []), default=len(bs))
        for i, w in enumerate(ws if ws_ok else []):
            chk.require(sum(x > 0 for x in w) <= groups, f"experiments.{name}.weight_sets",
                        f"set {i + 1} weights more base stations than the {groups} groups "
                        f"a split surface divides among them")
        modes = exps.get(name, {}).get("link_modes", [])
        chk.require(modes and all(mode in (BLOCKED, AVAILABLE) for mode in modes),
                    f"experiments.{name}.link_modes",
                    f"entries must be '{BLOCKED}' or '{AVAILABLE}'")
        # F_b^H Theta G_b has rank <= D: zero-forcing K_b users needs D >= K_b
        few = [d for d in grid if d < k_max]
        chk.require(BLOCKED not in modes or not few, f"experiments.{name}.d_grid",
                    f"blocked links zero-force {k_max} users of a base station only "
                    f"with D >= {k_max} elements (found D={few})")
    itf = exps.get("interference", {})
    pos = itf.get("ris_positions_m", [])
    chk.require(pos and all(map(_is_point, pos)), "experiments.interference.ris_positions_m",
                "must be a non-empty list of finite (x, y) positions")
    for b, (p, u) in enumerate(zip(bs, users)):
        chk.require(not _gainless(p, u if isinstance(u, list) else [], sc.get("eta_direct")),
                    "scenario.user_positions_m",
                    f"a user of base station {b + 1} has no finite, positive path gain from it")
    for path, surfaces in (("scenario.ris_position_m", [sc.get("ris_position_m")]),
                           ("experiments.interference.ris_positions_m", pos)):
        for p in surfaces:
            chk.require(not _gainless(p, bs + user_points, sc.get("eta_reflected")), path,
                        f"the surface at {p} has no finite, positive path gain to some "
                        f"base station or user")
    f_itf = itf.get("interferer_frequency_ghz")
    chk.require(_is_number(f_itf) and f_itf > 0,
                "experiments.interference.interferer_frequency_ghz", "must be > 0")
    victim = itf.get("victim_bs", 0)
    if chk.require(isinstance(victim, int) and 1 <= victim <= len(bs),
                   "experiments.interference.victim_bs", "must be a 1-based base station index"):
        aided = aided_bs(victim - 1) + 1
        if chk.require(aided <= len(bs), "experiments.interference.victim_bs",
                       "interference needs a second base station, which the surface aids"):
            chk.require(not nu_ok or any(w > 0 for w in nu[aided - 1]),
                        "optimization.user_weights",
                        f"base station {aided}, which interference aids, needs a positive weight")
    return chk.errors


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
    ci = cfg["circuit"]
    lo, hi = ci["self_cap_range_pf"]
    lo_t, hi_t = ci["inter_cap_range_pf"]
    return (picofarad(lo), picofarad(hi)), (picofarad(lo_t), picofarad(hi_t))


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
