import copy
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdris
from bdris.cli import main
from bdris.config import (DEFAULT_CONFIG, apply_overrides, config_hash,
                          dbm_to_watts, load_config, validate_config)
from bdris.experiments import RUNNERS
from bdris.results import emit_plotdata, read_results, write_results
from bdris.metrics import ResultRow

TINY_OVERRIDES = [
    "simulation.trials=2",
    "experiments.freq-response.d_values=[8]",
    "experiments.freq-response.grid_ghz={start: 7.0, stop: 8.0, step: 0.5}",
]


class TestUnitConversion:
    def test_dbm(self):
        assert dbm_to_watts(20.0) == pytest.approx(0.1)
        assert dbm_to_watts(-40.0) == pytest.approx(1e-7)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)


class TestDefaults:
    def test_freq_response_defaults(self):
        exp = DEFAULT_CONFIG["experiments"]["freq-response"]
        assert exp["d_values"] == [60, 100]
        assert exp["grid_ghz"] == {"start": 1.0, "stop": 16.0, "step": 0.5}
        assert len(DEFAULT_CONFIG["simulation"]["architectures"]) == 3

    def test_interference_defaults(self):
        exp = DEFAULT_CONFIG["experiments"]["interference"]
        assert max(exp["d_grid"]) == 80
        assert DEFAULT_CONFIG["scenario"]["eta_direct"] == 3.5
        assert exp["interferer_frequency_ghz"] == 8.4

    def test_network_parameters(self):
        sc = DEFAULT_CONFIG["scenario"]
        assert sc["bs_positions_m"] == [[0.0, 0.0], [80.0, 0.0]]
        assert sc["m_antennas"] == 40
        assert DEFAULT_CONFIG["power"]["total_dbm"] == 20.0
        assert DEFAULT_CONFIG["power"]["noise_dbm"] == -40.0
        assert DEFAULT_CONFIG["circuit"]["codebook_bits"] == 6


class TestValidation:
    def test_defaults_valid(self):
        assert validate_config(copy.deepcopy(DEFAULT_CONFIG)) == []

    def test_group_count_must_divide(self):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["optimization"]["group_count"] = 3
        errors = validate_config(cfg)
        assert any("divide" in e for e in errors)

    def test_negative_capacitance_range(self):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["circuit"]["self_cap_range_pf"] = [-0.1, 2.0]
        errors = validate_config(cfg)
        assert any("self_cap_range_pf" in e for e in errors)

    def test_target_frequency_must_be_operated(self):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["optimization"]["target_frequency_ghz"] = 9.9
        assert any("target_frequency" in e for e in validate_config(cfg))

    def test_weight_layout_must_match(self):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["optimization"]["user_weights"] = [[0.5, 0.5]]
        assert any("user_weights" in e for e in validate_config(cfg))

    def test_line_anchored_messages(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("circuit:\n  codebook_bits: 0\n")
        cfg, lines, source = load_config(str(path))
        errors = validate_config(cfg, source, lines)
        assert any(e.startswith(f"{path}:2: circuit.codebook_bits") for e in errors)


ONE_BS = ["scenario.bs_positions_m=[[0.0, 0.0]]", "scenario.user_positions_m=[[[25.0, 10.0]]]",
          "scenario.frequencies_ghz=[7.4]", "optimization.user_weights=[[1.0]]",
          "power.alpha=[[1.0]]", "experiments.per-bs-power.weight_sets=[[1.0]]",
          "experiments.network-power.weight_sets=[[1.0]]",
          "experiments.interference.victim_bs=1"]
NO_BS1_USERS = "optimization.user_weights=[[0.0, 0.0], [0.5, 0.5]]"

# One row per validation rule: (overrides, dotted path the error must name).
RULES = [
    (["optimization.fw_iteration=3"], "optimization.fw_iteration"),
    (["optimization.bs_weights=[0.3, 0.7]"], "optimization.bs_weights"),
    (["scenario.direct_links=blocked"], "scenario.direct_links"),
    (["optimization.fw_step_rule=exact"], "optimization.fw_step_rule"),
    (["scenario=5"], "scenario"),
    (["experiments.freq-response.grid_ghz=[1.0, 16.0]"], "experiments.freq-response.grid_ghz"),
    (["scenario.user_positions_m=5"], "scenario.user_positions_m"),
    (["simulation.trials=true"], "simulation.trials"),
    (["experiments.freq-response.d_values=[true]"], "experiments.freq-response.d_values"),
    (["scenario.bs_positions_m=[]"], "scenario.bs_positions_m"),
    (["scenario.bs_positions_m=[[0.0, 0.0], [.nan, 0.0]]"], "scenario.bs_positions_m"),
    (["scenario.bs_positions_m=[[0.0, 0.0], [80.0]]"], "scenario.bs_positions_m"),
    (["scenario.user_positions_m=[[[25.0, 10.0], [35.0]], [[70.0, 10.0]]]"],
     "scenario.user_positions_m"),
    (["scenario.ris_position_m=[40.0, 20.0, 1.0]"], "scenario.ris_position_m"),
    (["scenario.frequencies_ghz=[0.0, 8.0]"], "scenario.frequencies_ghz"),
    (["scenario.user_positions_m=[[], [[70.0, 10.0]]]"], "scenario.user_positions_m"),
    (["scenario.m_antennas=1"], "scenario.m_antennas"),
    (["scenario.eta_direct=0"], "scenario.eta_direct"),
    (["circuit.r_ohm=-1"], "circuit.r_ohm"),
    (["circuit.z0_ohm=0"], "circuit.z0_ohm"),
    (["circuit.inter_cap_range_pf=[0.6, 0.001]"], "circuit.inter_cap_range_pf"),
    (["circuit.codebook_bits=0"], "circuit.codebook_bits"),
    (["optimization.user_weights=[[0.5, -0.5], [0.5, 0.5]]"], "optimization.user_weights"),
    (["optimization.target_frequency_ghz=9.9"], "optimization.target_frequency_ghz"),
    (["optimization.fw_iterations=0"], "optimization.fw_iterations"),
    (["optimization.group_count=3"], "optimization.group_count"),
    (["power.noise_dbm=.inf"], "power.noise_dbm"),
    (["power.alpha=[[0.5], [0.5, 0.5]]"], "power.alpha"),
    (["power.alpha=[[0.7, 0.7], [0.5, 0.5]]"], "power.alpha"),
    (["simulation.trials=0"], "simulation.trials"),
    (["simulation.seed=1.5"], "simulation.seed"),
    (["simulation.architectures=[mesh]"], "simulation.architectures"),
    (["experiments.interference.d_grid=[]"], "experiments.interference.d_grid"),
    (["experiments.freq-response.d_values=[0]"], "experiments.freq-response.d_values"),
    (["experiments.target-shift.d=0"], "experiments.target-shift.d"),
    (["experiments.freq-response.grid_ghz={start: 8.0, stop: 7.0, step: 0.5}"],
     "experiments.freq-response.grid_ghz"),
    (["experiments.target-shift.targets_ghz=[]"], "experiments.target-shift.targets_ghz"),
    (["experiments.target-shift.targets_ghz=[0.5]"], "experiments.target-shift.targets_ghz"),
    (["experiments.target-shift.step_ghz=0"], "experiments.target-shift.step_ghz"),
    (["experiments.target-shift.half_span_ghz=0"], "experiments.target-shift.half_span_ghz"),
    (["experiments.freq-response.tracked_bs=3"], "experiments.freq-response.tracked_bs"),
    (["experiments.target-shift.tracked_bs=0"], "experiments.target-shift.tracked_bs"),
    (["experiments.freq-response.tracked_user=3"], "experiments.freq-response.tracked_user"),
    (["experiments.target-shift.tracked_user=0"], "experiments.target-shift.tracked_user"),
    (["experiments.per-bs-power.weight_sets=[[0.0, 0.0]]"],
     "experiments.per-bs-power.weight_sets"),
    ([NO_BS1_USERS, "experiments.network-power.weight_sets=[[1.0, 0.0]]"],
     "experiments.network-power.weight_sets"),
    ([NO_BS1_USERS, "experiments.per-bs-power.weight_sets=[[0.3, 0.7]]"],
     "experiments.per-bs-power.weight_sets"),
    (["experiments.network-power.link_modes=[sometimes]"],
     "experiments.network-power.link_modes"),
    (["experiments.interference.ris_positions_m=[]"],
     "experiments.interference.ris_positions_m"),
    (["experiments.interference.ris_positions_m=[[40.0, a]]"],
     "experiments.interference.ris_positions_m"),
    (["experiments.interference.interferer_frequency_ghz=0"],
     "experiments.interference.interferer_frequency_ghz"),
    (["experiments.interference.victim_bs=3"], "experiments.interference.victim_bs"),
    (ONE_BS, "experiments.interference.victim_bs"),
    ([NO_BS1_USERS], "optimization.user_weights"),
    (["output.dir=5"], "output.dir"),
    (["power.total_dbm=1e300"], "power.total_dbm"),
    # a repeated entry wrote its rows twice; so did two entries whose numbers
    # spell one table name under :g
    *[([f"experiments.{key}={value}"], f"experiments.{key}") for key, value in (
        ("freq-response.d_values", "[4, 4]"), ("per-bs-power.d_grid", "[20, 40, 20]"),
        ("network-power.d_grid", "[20, 20]"), ("per-bs-power.link_modes", "[blocked, blocked]"),
        ("per-bs-power.weight_sets", "[[0.3, 0.7], [0.3, 0.7]]"),
        ("per-bs-power.weight_sets", "[[0.3, 0.7], [0.3000001, 0.7]]"),
        ("target-shift.targets_ghz", "[7.4, 8.0, 7.4]"),
        ("target-shift.targets_ghz", "[7.4, 7.4000001]"),
        ("interference.ris_positions_m", "[[60.0, 20.0], [60.0, 20.0]]"),
        ("interference.ris_positions_m", "[[60.0, 20.0], [60.0000001, 20.0]]"))],
]


# Path gains outside GAIN_BAND: each config failed its run on degenerate
# trials or with a traceback, although every gain was finite and positive.
# Named by their override, since their paths repeat earlier rows' ids.
GAIN_RULES = [
    (["scenario.eta_reflected=47"], "scenario.ris_position_m"),
    (["scenario.eta_reflected=120"], "scenario.ris_position_m"),
    (["scenario.eta_direct=85"], "scenario.user_positions_m"),
    (["scenario.ris_position_m=[1.0e-80, 0.0]"], "scenario.ris_position_m"),
]


@pytest.mark.parametrize("overrides, path", RULES + GAIN_RULES,
                         ids=[p for _, p in RULES] + [o for (o,), _ in GAIN_RULES])
def test_rule_names_its_path(overrides, path):
    cfg = apply_overrides(copy.deepcopy(DEFAULT_CONFIG), overrides)
    assert any(e.startswith(f"<config>: {path}: ") for e in validate_config(cfg))


# The one type rule: each value has the type of its default in default.yaml.
@pytest.mark.parametrize("override, message", [
    ("scenario.m_antennas=4.0", "scenario.m_antennas: must be an integer"),
    ("simulation.seed=true", "simulation.seed: must be an integer"),
    ("scenario.eta_direct=.nan", "scenario.eta_direct: must be a finite number"),
    ("scenario.eta_direct=1" + "0" * 330, "scenario.eta_direct: must be a finite number"),
    ("circuit.r_ohm=[1.0]", "circuit.r_ohm: must be a finite number"),
    ("output.dir=5", "output.dir: must be a string"),
    ("output.dir=null", "output.dir: must be a string"),
    ("simulation.architectures=fully-connected",
     "simulation.architectures: must be a list of strings"),
    ("experiments.freq-response.d_values=[4.0]",
     "experiments.freq-response.d_values: must be a list of integers"),
    ("scenario.user_positions_m=[[[25.0, 10.0]], [70.0, 10.0]]",
     "scenario.user_positions_m: must be a list of lists of lists of finite numbers"),
    ("experiments.freq-response.grid_ghz={start: 1.0, stop: 2.0}",
     "experiments.freq-response.grid_ghz.step: missing key"),
    ("optimization.fw_step_rule=line-search", "optimization.fw_step_rule: unknown key"),
], ids=["float-for-int", "bool-for-int", "nan", "huge-int", "list-for-float", "int-for-str",
        "null-for-str", "str-for-list", "float-in-int-list", "flat-nested-list", "missing-key",
        "unknown-key"])
def test_type_fault_message(override, message):
    cfg = apply_overrides(copy.deepcopy(DEFAULT_CONFIG), [override])
    assert validate_config(cfg) == [f"<config>: {message}"]


def _leaves(tree, prefix=()):
    for key, value in tree.items():
        yield from _leaves(value, prefix + (key,)) if isinstance(value, dict) else [prefix + (key,)]


# Anything a YAML file can hold, including the integers, floats and nesting
# the type rule must reject without raising.
_YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats()
    | st.sampled_from([1e300, -1e300, float("nan"), float("inf"), -float("inf")])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_leaves(DEFAULT_CONFIG))), _YAML_VALUES)
def test_validation_never_raises(path, value):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    before = copy.deepcopy(cfg)
    errors = validate_config(cfg)
    assert isinstance(errors, list) and all(isinstance(e, str) for e in errors)
    assert cfg == before  # validation changes no value, so no CSV byte or hash moves


# Honour map: each leaf key of the defaults, the experiments whose rows it moves,
# and one value for it that stays valid on HONOUR_BASE (1 trial, D <= 8).
HONOUR_BASE = [
    "simulation.trials=1", "scenario.m_antennas=8", "optimization.fw_iterations=50",
    "circuit.codebook_bits=4", "experiments.freq-response.d_values=[4]",
    "experiments.freq-response.grid_ghz={start: 7.0, stop: 8.0, step: 0.5}",
    "experiments.target-shift.targets_ghz=[7.4]", "experiments.target-shift.half_span_ghz=0.2",
    "experiments.target-shift.d=4", "experiments.interference.ris_positions_m=[[40.0, 20.0]]",
    "experiments.interference.d_grid=[4]",
    "experiments.per-bs-power.d_grid=[4]", "experiments.per-bs-power.weight_sets=[[0.3, 0.7]]",
    "experiments.network-power.d_grid=[4]", "experiments.network-power.weight_sets=[[0.3, 0.7]]",
]
ALL = tuple(RUNNERS)
TRACKED = ("freq-response", "target-shift")
POWER = ("per-bs-power", "network-power")
SWEEPS = POWER + ("interference",)
HONOUR = {
    "scenario.bs_positions_m": (ALL, "[[0.0, 5.0], [80.0, 0.0]]"),
    "scenario.user_positions_m": (ALL, "[[[25.0, 12.0], [35.0, 0.0]], [[70.0, 12.0], [55.0, 0]]]"),
    "scenario.ris_position_m": (TRACKED + POWER, "[40.0, 25.0]"),
    "scenario.m_antennas": (ALL, "6"),
    "scenario.frequencies_ghz": (SWEEPS, "[7.6, 8.2]"),
    "scenario.eta_direct": (SWEEPS, "3.0"),
    "scenario.eta_reflected": (ALL, "2.2"),
    "circuit.r_ohm": (ALL, "2.0"),
    "circuit.l0_nh": (ALL, "2.6"),
    "circuit.l_nh": (ALL, "0.8"),
    "circuit.r_tilde_ohm": (ALL, "2.0"),
    "circuit.l0_tilde_nh": (ALL, "12.0"),
    "circuit.l_tilde_nh": (ALL, "0.3"),
    "circuit.z0_ohm": (ALL, "60.0"),
    "circuit.self_cap_range_pf": (ALL, "[0.2, 2.0]"),
    "circuit.inter_cap_range_pf": (ALL, "[0.001, 0.5]"),
    "circuit.codebook_bits": (ALL, "3"),
    "optimization.user_weights": (SWEEPS, "[[0.9, 0.1], [0.5, 0.5]]"),
    "optimization.target_frequency_ghz": (POWER, "8.0"),
    # 50 -> 51 moves no row: Frank-Wolfe has converged at D <= 8
    "optimization.fw_iterations": (SWEEPS, "2"),
    "optimization.group_count": (ALL, "4"),
    "power.total_dbm": (ALL, "10.0"),
    "power.noise_dbm": (("interference",), "-30.0"),  # received power is noise-free
    "power.alpha": (POWER, "[[0.7, 0.3], [0.5, 0.5]]"),
    "simulation.trials": (ALL, "2"),
    "simulation.seed": (ALL, "2"),
    "simulation.architectures": (ALL, "[fully-connected, group-connected]"),
    "experiments.freq-response.d_values": (("freq-response",), "[6]"),
    "experiments.freq-response.grid_ghz.start": (("freq-response",), "6.5"),
    "experiments.freq-response.grid_ghz.stop": (("freq-response",), "8.5"),
    "experiments.freq-response.grid_ghz.step": (("freq-response",), "0.25"),
    "experiments.freq-response.tracked_bs": (("freq-response",), "2"),
    "experiments.freq-response.tracked_user": (("freq-response",), "2"),
    "experiments.target-shift.targets_ghz": (("target-shift",), "[8.0]"),
    "experiments.target-shift.half_span_ghz": (("target-shift",), "0.3"),
    "experiments.target-shift.step_ghz": (("target-shift",), "0.2"),
    "experiments.target-shift.d": (("target-shift",), "6"),
    "experiments.target-shift.tracked_bs": (("target-shift",), "2"),
    "experiments.target-shift.tracked_user": (("target-shift",), "2"),
    **{f"experiments.{name}.{key}": ((name,), value) for name in POWER for key, value in (
        ("d_grid", "[6]"), ("weight_sets", "[[0.5, 0.5]]"), ("link_modes", "[available]"))},
    "experiments.interference.ris_positions_m": (("interference",), "[[30.0, 20.0]]"),
    "experiments.interference.d_grid": (("interference",), "[6]"),
    "experiments.interference.interferer_frequency_ghz": (("interference",), "8.6"),
    "experiments.interference.victim_bs": (("interference",), "1"),
    "output.dir": (ALL, None),  # the CLI reads it: see test_output_dir_is_honoured
}


# Overrides a change needs besides its own.
ALONGSIDE = {
    # the target frequency must stay one of the operating frequencies
    "scenario.frequencies_ghz": ("optimization.target_frequency_ghz=7.6",),
}


def test_honour_map_names_every_key():
    assert set(HONOUR) == {".".join(path) for path in _leaves(DEFAULT_CONFIG)}


@functools.lru_cache(maxsize=None)
def _rows(overrides: tuple, experiment: str) -> dict:
    cfg = apply_overrides(copy.deepcopy(DEFAULT_CONFIG), HONOUR_BASE + list(overrides))
    assert validate_config(cfg) == []
    return RUNNERS[experiment](cfg)


@pytest.mark.parametrize("key", [key for key, (_, value) in HONOUR.items() if value])
def test_key_moves_the_rows_of_its_readers(key):
    readers, value = HONOUR[key]
    for experiment in readers:
        assert (_rows((f"{key}={value}",) + ALONGSIDE.get(key, ()), experiment)
                != _rows((), experiment)), experiment


def test_output_dir_is_honoured(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["run", "target-shift", "--override", "output.dir=elsewhere"]
    assert main(args + [arg for item in HONOUR_BASE for arg in ("--override", item)]) == 0
    assert [p.name for p in (tmp_path / "elsewhere").iterdir()] == ["target_shift_7p4ghz.csv"]


@pytest.mark.parametrize("overrides", [
    # a fully-connected surface serves the weighted base stations jointly
    ["simulation.architectures=[fully-connected]", NO_BS1_USERS,
     "experiments.per-bs-power.weight_sets=[[0.3, 0.7]]",
     "experiments.network-power.weight_sets=[[0.3, 0.7]]",
     "experiments.interference.victim_bs=1"],
    ["experiments.target-shift.tracked_bs=2", "experiments.target-shift.tracked_user=2"],
    # fewer elements than users: one tracked user, or direct links to zero-force over
    ["simulation.architectures=[fully-connected]", "experiments.freq-response.d_values=[1]",
     "experiments.target-shift.d=1", "experiments.interference.d_grid=[1]",
     "experiments.network-power.d_grid=[1]", "experiments.network-power.link_modes=[available]"],
])
def test_runnable_configs_pass(overrides):
    assert validate_config(apply_overrides(copy.deepcopy(DEFAULT_CONFIG), overrides)) == []


# Configs that validation let through, or crashed on, before it checked them:
# (experiment, file, line, dotted path named at that line).
REJECTED_FILES = [
    ("network-power", "optimization:\n  user_weights: [[0, 0], [0.5, 0.5]]\n"
     "experiments:\n  network-power:\n    weight_sets: [[1, 0]]\n",
     5, "experiments.network-power.weight_sets"),
    ("interference", "optimization:\n  user_weights: [[0, 0], [0.5, 0.5]]\n",
     2, "optimization.user_weights"),
    ("freq-response", "experiments:\n  freq-response:\n    tracked_bs: 3\n",
     3, "experiments.freq-response.tracked_bs"),
    ("target-shift", "experiments:\n  target-shift:\n    tracked_bs: 0\n",
     3, "experiments.target-shift.tracked_bs"),
    ("freq-response", "scenario: 5\n", 1, "scenario"),
    ("freq-response", "simulation: 5\n", 1, "simulation"),
    ("freq-response", "optimization:\n  fw_iteration: 3\n", 2, "optimization.fw_iteration"),
    # a key of the deleted diminishing step rule; line search is the only rule
    ("interference", "optimization:\n  fw_iterations: 50\n  fw_step_rule: line-search\n",
     3, "optimization.fw_step_rule"),
    ("freq-response", "simulation:\n  trials: true\n", 2, "simulation.trials"),
    # co-located nodes: a zero distance has no path gain
    ("freq-response", "scenario:\n  ris_position_m: [0.0, 0.0]\n", 2, "scenario.ris_position_m"),
    ("interference", "experiments:\n  interference:\n    ris_positions_m: [[0.0, 0.0]]\n",
     3, "experiments.interference.ris_positions_m"),
    ("per-bs-power", "scenario:\n  user_positions_m: [[[0, 0], [35, 0]], [[70, 10], [55, 0]]]\n",
     2, "scenario.user_positions_m"),
    # blocked links, one element, two users per base station: every draw degenerates
    ("network-power", "simulation:\n  architectures: [fully-connected]\nexperiments:\n"
     "  network-power:\n    d_grid: [1]\n    link_modes: [blocked]\n",
     5, "experiments.network-power.d_grid"),
    # values of the wrong type: the run died in os.path.join, validation in np.isfinite
    ("freq-response", "output:\n  dir: 5\n", 2, "output.dir"),
    ("freq-response", "scenario:\n  eta_direct: 1" + "0" * 330 + "\n", 2, "scenario.eta_direct"),
    # values the run's own conversions cannot take: an overflowing or zero power in
    # watts, a grid that rounds to no frequency, or one too fine to build
    ("freq-response", "power:\n  total_dbm: 1e300\n", 2, "power.total_dbm"),
    ("freq-response", "power:\n  noise_dbm: -1e300\n", 2, "power.noise_dbm"),
    ("freq-response", "experiments:\n  freq-response:\n"
     "    grid_ghz: {start: 1e300, stop: 1e300, step: 1.0}\n",
     3, "experiments.freq-response.grid_ghz"),
    ("freq-response", "experiments:\n  freq-response:\n"
     "    grid_ghz: {start: 1.0, stop: 16.0, step: 1e-9}\n",
     3, "experiments.freq-response.grid_ghz"),
    ("target-shift", "experiments:\n  target-shift:\n    targets_ghz: [1e300]\n",
     3, "experiments.target-shift.targets_ghz"),
    # a codebook of 2^24 codewords per branch type: build_codebook asked for 1 GiB
    ("freq-response", "circuit:\n  codebook_bits: 24\n", 2, "circuit.codebook_bits"),
    # frequencies the run cannot use: a grid that rounds to 0 GHz first, or that is
    # infinite in Hz; an operating frequency that is infinite in Hz
    ("freq-response", "experiments:\n  freq-response:\n"
     "    grid_ghz: {start: 1.0e-10, stop: 2.0e-9, step: 1.0e-9}\n",
     3, "experiments.freq-response.grid_ghz"),
    ("freq-response", "experiments:\n  freq-response:\n"
     "    grid_ghz: {start: 1.0e300, stop: 1.0e300, step: 1.0e300}\n",
     3, "experiments.freq-response.grid_ghz"),
    ("per-bs-power", "scenario:\n  frequencies_ghz: [1.0e300, 8.0]\n"
     "optimization:\n  target_frequency_ghz: 1.0e300\n", 2, "scenario.frequencies_ghz"),
    # finite in Hz, yet no codebook's admittances lie on one arc there
    pytest.param("per-bs-power", "scenario:\n  frequencies_ghz: [1.0e200, 8.0]\n"
                 "optimization:\n  target_frequency_ghz: 1.0e200\n", 2,
                 "scenario.frequencies_ghz", id="scenario.frequencies_ghz-codebook-1e200"),
    pytest.param("per-bs-power", "scenario:\n  frequencies_ghz: [1.0e-12, 8.0]\n"
                 "optimization:\n  target_frequency_ghz: 1.0e-12\n", 2,
                 "scenario.frequencies_ghz", id="scenario.frequencies_ghz-codebook-1e-12"),
    # an interferer frequency at which no codebook can be built: every draw's
    # scattering there fails, and the run blamed the fading
    pytest.param("interference", "experiments:\n  interference:\n"
                 "    interferer_frequency_ghz: 1.0e200\n", 3,
                 "experiments.interference.interferer_frequency_ghz",
                 id="experiments.interference.interferer_frequency_ghz-codebook-1e200"),
    pytest.param("interference", "experiments:\n  interference:\n"
                 "    interferer_frequency_ghz: 1.0e-12\n", 3,
                 "experiments.interference.interferer_frequency_ghz",
                 id="experiments.interference.interferer_frequency_ghz-codebook-1e-12"),
    # repeated entries: the run wrote each row once per repeat
    ("freq-response", "simulation:\n  architectures: [fully-connected, fully-connected]\n",
     2, "simulation.architectures"),
    ("interference", "experiments:\n  interference:\n    d_grid: [4, 4]\n",
     3, "experiments.interference.d_grid"),
    ("network-power", "experiments:\n  network-power:\n    link_modes: [available, available]\n",
     3, "experiments.network-power.link_modes"),
    # arrays no run could allocate: a 160 GB retrieval stack at D = 10^5, or a Gram
    # matrix of 4 users x 10^7 antennas; validation must reject both before any run
    ("freq-response", "experiments:\n  freq-response:\n    d_values: [100000]\n",
     3, "experiments.freq-response.d_values"),
    ("per-bs-power", "scenario:\n  m_antennas: 10000000\n", 2, "scenario.m_antennas"),
]


@pytest.mark.parametrize("experiment, text, line, path", REJECTED_FILES,
                         ids=[p for *_, p in REJECTED_FILES])
def test_rejected_file_names_path_and_line(experiment, text, line, path, tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text(text)
    assert main(["validate", str(config)]) == 1
    assert f"{config}:{line}: {path}: " in capsys.readouterr().err
    assert main(["run", experiment, "--config", str(config), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{config}:{line}: {path}: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_codebook_failures_name_each_key_once(tmp_path, capsys):
    # 17 of these 100 grid frequencies build no codebook; the first one is reported
    config = tmp_path / "bad.yaml"
    config.write_text("experiments:\n  freq-response:\n"
                      "    grid_ghz: {start: 1.0e-9, stop: 1.0e-7, step: 1.0e-9}\n")
    assert main(["validate", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {config}:3: experiments.freq-response.grid_ghz: "
        "no codebook can be built at 3e-09 GHz"]


def test_negative_seed_rejected(tmp_path, capsys):
    # numpy's seed sequence takes no negative seed: the run died drawing its first trial
    config = tmp_path / "bad.yaml"
    config.write_text("simulation:\n  seed: -1\n")
    assert main(["validate", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}:2: simulation.seed: must be an integer >= 0\n")
    assert main(["run", "freq-response", "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: <defaults>: simulation.seed: must be an integer >= 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, path", [
    # group-connected: two weighted base stations, one group
    (["optimization.group_count=1"], "experiments.per-bs-power.weight_sets"),
    # single-connected: as many groups as elements, one at D = 1
    (["simulation.architectures=[single-connected]",
      "experiments.network-power.d_grid=[1, 20]"], "experiments.network-power.weight_sets"),
])
def test_weight_set_needs_a_group_per_weighted_bs(overrides, path):
    cfg = apply_overrides(copy.deepcopy(DEFAULT_CONFIG), overrides)
    assert any(e.startswith(f"<config>: {path}: set 1 weights more base stations")
               for e in validate_config(cfg))


# Config files that died with a traceback, or passed as valid, before the one
# loader and the path-gain rule: (experiment, bytes, line, start of the message).
MALFORMED_FILES = [
    ("freq-response", b"scenario: [1, 2\n", 2, "while parsing a flow sequence"),
    ("freq-response", b"simulation:\n  trials: 3\n  seed: \xff\n", 3, "not UTF-8 text"),
    ("freq-response", b"simulation:\n  trials: *nope\n", 2, "found undefined alias 'nope'"),
    ("freq-response", b"simulation:\n  trials: 3\nsimulation:\n  seed: 2\n", 3,
     "simulation: repeated key"),
    # a node a hair from another, or too far for its path gain to be a positive float
    ("freq-response", b"scenario:\n  ris_position_m: [0.0, 1.0e-200]\n", 2,
     "scenario.ris_position_m: the surface at [0.0, 1e-200] has no finite, positive"),
    ("interference", b"scenario:\n  user_positions_m: [[[0.0, 1.0e-200], [35.0, 0.0]], "
     b"[[70.0, 10.0], [55.0, 0.0]]]\n", 2,
     "scenario.user_positions_m: a user of base station 1 has no finite, positive"),
    ("freq-response", b"scenario:\n  ris_position_m: [1.0e+200, 0.0]\n", 2,
     "scenario.ris_position_m: the surface at [1e+200, 0.0] has no finite, positive"),
    # an alias inside its own anchor: the line walk and the type rule never ended
    ("freq-response", b"a: &x {b: *x}\n", 1, "found recursive alias 'x'"),
    ("freq-response", b"scenario:\n  bs_positions_m: &x\n  - *x\n", 3,
     "found recursive alias 'x'"),
]


def test_nested_aliases_are_checked_once(tmp_path, monkeypatch):
    # 200 aliases of a list of 200 aliases of a 200-float list: checking every
    # entry of every alias took 8,040,343 type checks
    row = "[" + ", ".join(["1.0"] * 200) + "]"
    config = tmp_path / "aliases.yaml"
    config.write_text("scenario:\n  user_positions_m: [&b [&a " + row + ", "
                      + ", ".join(["*a"] * 199) + "], " + ", ".join(["*b"] * 199) + "]\n")
    cfg, lines, source = load_config(str(config))
    calls = []
    fits = bdris.config._fits
    monkeypatch.setattr(bdris.config, "_fits", lambda *args: calls.append(1) or fits(*args))
    errors = validate_config(cfg, source, lines)
    assert len(calls) <= 2_000
    assert errors[:2] == [
        f"{config}:2: scenario.user_positions_m: need one user list per base station",
        f"{config}:2: scenario.user_positions_m: positions must be finite (x, y) pairs"]
    assert len(errors) == 7


@pytest.mark.parametrize("experiment, text, line, message", MALFORMED_FILES,
                         ids=["unclosed-flow", "not-utf8", "undefined-alias", "repeated-key",
                              "surface-near", "user-near", "surface-far",
                              "recursive-alias-mapping", "recursive-alias-list"])
def test_malformed_file_is_one_error_line(experiment, text, line, message, tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_bytes(text)
    for argv in (["validate", str(config)], ["run", experiment, "--config", str(config),
                                            "--trials", "1", "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {config}:{line}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, message", [
    ("scenario.m_antennas=[1",
     "override 'scenario.m_antennas=[1':1: while parsing a flow sequence"),
    ("scenario.ris_position_m=[0.0, 1e-200]",
     "<defaults>: scenario.ris_position_m: the surface at [0.0, 1e-200] has no finite"),
], ids=["unclosed-flow", "surface-near"])
def test_malformed_override_is_one_error_line(override, message, tmp_path, capsys):
    assert main(["run", "freq-response", "--trials", "1", "--out", str(tmp_path / "out"),
                 "--override", override]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


def test_exponent_forms_read_as_floats(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("circuit:\n  r_ohm: 1e-3\n  r_tilde_ohm: 1.0e200\n  z0_ohm: 1E5\n")
    cfg, lines, source = load_config(str(path), ["circuit.l_nh=1e-3", "circuit.l_tilde_nh=1.0e200",
                                                 "circuit.l0_nh=1E5", "simulation.trials=2"])
    values = [cfg["circuit"][key] for key in ("r_ohm", "r_tilde_ohm", "z0_ohm",
                                              "l_nh", "l_tilde_nh", "l0_nh")]
    assert values == 2 * [1e-3, 1e200, 1e5]
    assert all(type(v) is float for v in values)
    assert type(cfg["simulation"]["trials"]) is int  # integers stay integers
    assert validate_config(cfg, source, lines) == []
    path.write_text("circuit:\n  r_ohm: 1e-3\n")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: valid\n"


def test_validate_outside_the_repository_finds_the_defaults(tmp_path):
    (tmp_path / "cfg.yaml").write_text("simulation:\n  trials: 3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bdris.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "bdris.cli", "validate", "cfg.yaml"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "cfg.yaml: valid\n", "")


def test_pyproject_ships_the_defaults():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert "default.yaml" in package_data["bdris"]
    assert (root / "src" / "bdris" / "default.yaml").is_file()


def test_three_bs_over_two_groups_rejected(tmp_path, capsys):
    # three weighted base stations, two groups: the run died splitting them
    text = ("scenario:\n  bs_positions_m: [[0, 0], [80, 0], [40, 60]]\n"
            "  user_positions_m: [[[25, 10]], [[70, 10]], [[40, 40]]]\n"
            "  frequencies_ghz: [7.4, 8.0, 8.6]\n"
            "optimization:\n  user_weights: [[1], [1], [1]]\n"
            "power:\n  alpha: [[1], [1], [1]]\n"
            "simulation:\n  architectures: [group-connected]\n"
            "experiments:\n  per-bs-power:\n    weight_sets: [[1, 1, 0]]\n"
            "  network-power:\n    weight_sets: [[1, 1, 1]]\n")
    test_rejected_file_names_path_and_line(
        "network-power", text, 15, "experiments.network-power.weight_sets", tmp_path, capsys)


class TestOverridesAndHash:
    def test_override_types(self):
        cfg = apply_overrides(copy.deepcopy(DEFAULT_CONFIG),
                              ["simulation.trials=7",
                               "output.dir=elsewhere",
                               "experiments.freq-response.d_values=[4, 8]"])
        assert cfg["simulation"]["trials"] == 7
        assert cfg["output"]["dir"] == "elsewhere"
        assert cfg["experiments"]["freq-response"]["d_values"] == [4, 8]

    def test_bad_override_rejected(self):
        from bdris.errors import ConfigError
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no_equals_sign"])

    def test_override_into_non_mapping_rejected(self, tmp_path, capsys):
        from bdris.errors import ConfigError
        overrides = ["scenario=5", "scenario.m_antennas=3"]
        with pytest.raises(ConfigError, match="'scenario.m_antennas=3': scenario is not"):
            apply_overrides(copy.deepcopy(DEFAULT_CONFIG), overrides)
        with pytest.raises(ConfigError, match=": experiments.interference.d_grid is not"):
            apply_overrides(copy.deepcopy(DEFAULT_CONFIG),
                            ["experiments.interference.d_grid.first=4"])
        assert main(["run", "freq-response", "--out", str(tmp_path / "out"),
                     "--override", overrides[0], "--override", overrides[1]]) == 1
        err = capsys.readouterr().err
        assert "scenario is not a mapping" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_hash_stability_and_sensitivity(self):
        a = config_hash(copy.deepcopy(DEFAULT_CONFIG))
        assert a == config_hash(copy.deepcopy(DEFAULT_CONFIG))
        changed = apply_overrides(copy.deepcopy(DEFAULT_CONFIG), ["simulation.seed=2"])
        assert a != config_hash(changed)

    def test_user_file_merges_over_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("simulation:\n  trials: 5\n")
        cfg, _, _ = load_config(str(path))
        assert cfg["simulation"]["trials"] == 5
        assert cfg["circuit"]["codebook_bits"] == 6


class TestResultsFiles:
    def sample_result(self):
        return (
            ResultRow("frequency_ghz", 7.0, "fully-connected D=8", "received_power_w",
                      1.25e-4, 1e-6, 2),
            ResultRow("frequency_ghz", 7.5, "fully-connected D=8", "received_power_w",
                      1.5e-4, 2e-6, 2),
            ResultRow("frequency_ghz", 7.0, "single-connected D=8", "received_power_w",
                      0.5e-4, 1e-6, 2),
        )

    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_results(path, self.sample_result(), "freq-response", "ab" * 32, 7)
        header, rows = read_results(path)
        assert header["config_sha256"] == "ab" * 32
        assert header["seed"] == "7"
        assert rows == self.sample_result()

    def test_plotdata_one_file_per_curve(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_results(path, self.sample_result(), "freq-response", "00" * 32, 7)
        files = emit_plotdata(path, str(tmp_path / "curves"))
        assert len(files) == 2
        for f in files:
            rows = [line.split() for line in Path(f).read_text().splitlines()]
            assert all(len(r) == 3 for r in rows)

    def test_plotdata_empty_warns(self, tmp_path, capsys):
        path = str(tmp_path / "empty.csv")
        write_results(path, (), "freq-response", "00" * 32, 7)
        files = emit_plotdata(path, str(tmp_path))
        assert files == []
        assert "warning" in capsys.readouterr().err


class TestCli:
    def test_run_writes_deterministic_csv(self, tmp_path):
        args = ["run", "freq-response", "--seed", "3", "--out"]
        overrides = []
        for item in TINY_OVERRIDES:
            overrides += ["--override", item]
        rc1 = main(args + [str(tmp_path / "a")] + overrides)
        rc2 = main(args + [str(tmp_path / "b")] + overrides)
        assert rc1 == 0 and rc2 == 0
        a = (tmp_path / "a" / "freq_response.csv").read_bytes()
        b = (tmp_path / "b" / "freq_response.csv").read_bytes()
        assert a == b
        text = a.decode()
        assert text.startswith("# experiment: freq-response")
        assert "# seed: 3" in text

    def test_run_rejects_invalid_config(self, tmp_path, capsys):
        rc = main(["run", "freq-response", "--out", str(tmp_path),
                   "--override", "circuit.codebook_bits=0"])
        assert rc == 1
        assert "codebook_bits" in capsys.readouterr().err

    def test_run_reports_exhausted_redraw_budget(self, tmp_path, capsys, monkeypatch):
        from bdris import experiments
        from bdris.errors import DegenerateChannelError

        def always(*args):
            raise DegenerateChannelError("forced")

        monkeypatch.setattr(experiments, "evaluate_received_powers", always)
        overrides = []
        for item in TINY_OVERRIDES:
            overrides += ["--override", item]
        rc = main(["run", "freq-response", "--out", str(tmp_path / "out")] + overrides)
        assert rc == 1
        err = capsys.readouterr().err
        # one redraw is tolerated; the second exceeds the budget
        assert err.splitlines() == 2 * [
            "warning: DegenerateChannelError at freq-response fully-connected D=8; "
            "redrawing"] + [
            "error: more than 1% degenerate trials at freq-response fully-connected D=8"]
        assert not (tmp_path / "out").exists()

    def test_run_reports_unwritable_output_directory(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        overrides = []
        for item in TINY_OVERRIDES:
            overrides += ["--override", item]
        out = str(blocker / "sub")
        runs = []
        # the directory is checked before any trial runs
        monkeypatch.setitem(RUNNERS, "freq-response", lambda cfg: runs.append(cfg) or {})
        assert main(["run", "freq-response", "--out", out] + overrides) == 1
        assert runs == []
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and out in lines[0]
        assert "Traceback" not in captured.err

    def test_run_prints_redraw_warnings(self, tmp_path, capsys, monkeypatch):
        from bdris import experiments
        from bdris.errors import DegenerateChannelError

        powers, calls = experiments.evaluate_received_powers, []

        def fail_first(*args):
            calls.append(1)
            if len(calls) == 1:
                raise DegenerateChannelError("forced")
            return powers(*args)

        monkeypatch.setattr(experiments, "evaluate_received_powers", fail_first)
        overrides = []
        for item in TINY_OVERRIDES:
            overrides += ["--override", item]
        rc = main(["run", "freq-response", "--out", str(tmp_path)] + overrides)
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: DegenerateChannelError at freq-response fully-connected D=8; "
            "redrawing"]

    def test_unknown_experiment_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "no-such-study"])
        assert exc.value.code == 2

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = tmp_path / "good.yaml"
        good.write_text("simulation:\n  trials: 3\n")
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.yaml"
        bad.write_text("optimization:\n  group_count: 3\n")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "divide" in err

    def test_validate_unreadable_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.yaml")]) == 1

    def test_plotdata_cli(self, tmp_path):
        overrides = []
        for item in TINY_OVERRIDES:
            overrides += ["--override", item]
        overrides += ["--override", "experiments.freq-response.d_values=[4, 8]"]
        main(["run", "freq-response", "--seed", "3", "--out", str(tmp_path)]
             + overrides)
        rc = main(["plotdata", str(tmp_path / "freq_response.csv"),
                   "--out", str(tmp_path / "curves")])
        assert rc == 0
        files = sorted(os.listdir(tmp_path / "curves"))
        assert len(files) == 6  # three architectures times two element counts


class TestBlasThreadDefault:
    @staticmethod
    def threads_seen_after_import(value):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(bdris.__file__).parents[1])
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        out = subprocess.run(
            [sys.executable, "-c",
             "import os, bdris; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        return out.stdout.strip()

    def test_import_defaults_to_one_thread(self):
        assert self.threads_seen_after_import(None) == "1"

    def test_explicit_setting_is_kept(self):
        assert self.threads_seen_after_import("2") == "2"

    @staticmethod
    def csv_per_thread_count(tmp_path, experiment, settings, name, **sections):
        config = tmp_path / "tiny.yaml"
        config.write_text(json.dumps({"simulation": {"trials": 2}, **sections,
                                      "experiments": {experiment: settings}}))
        csv = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(bdris.__file__).parents[1]))
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "bdris.cli", "run", experiment,
                 "--config", str(config), "--seed", "3", "--out", str(out)],
                env=env, capture_output=True, check=True, timeout=120)
            csv[threads] = (out / name).read_bytes()
        return csv

    def test_interference_csv_independent_of_thread_count(self, tmp_path):
        csv = self.csv_per_thread_count(
            tmp_path, "interference",
            {"ris_positions_m": [[40.0, 20.0]], "d_grid": [8, 20]},
            "interference_x40_y20.csv", optimization={"fw_iterations": 60})
        assert csv["1"] == csv["2"]

    def test_freq_response_csv_independent_of_thread_count(self, tmp_path):
        # the blocked-link eigensolve path; at D = 100 the bytes do depend on
        # the thread count, through the network inverses of retrieval and
        # scattering (see README), so this stays at small D
        csv = self.csv_per_thread_count(
            tmp_path, "freq-response",
            {"d_values": [8, 20], "grid_ghz": {"start": 7.0, "stop": 8.0, "step": 0.5}},
            "freq_response.csv")
        assert csv["1"] == csv["2"]


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; loading it would double the start-up
    # time of every CLI process and bring in a second OpenBLAS
    env = dict(os.environ, PYTHONPATH=str(Path(bdris.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bdris.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_quick_demo_prints_five_results():
    script = Path(__file__).resolve().parents[1] / "scripts" / "quick_demo.py"
    env = dict(os.environ, PYTHONPATH=str(Path(bdris.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    labels = ("relaxed optimum (upper reference)", "fully-connected, configured",
              "group-connected (G=2), configured", "single-connected, configured",
              "random capacitances (baseline)")
    lines = out.stdout.splitlines()
    assert len(lines) == 1 + len(labels)
    for line, label in zip(lines[1:], labels):
        match = re.fullmatch(rf"\s*{re.escape(label)}\s+(\d+\.\d{{4}}) mW", line)
        assert match and float(match.group(1)) > 0, line


@pytest.mark.parametrize("plotdata_rc, expected", [(0, 0), (1, 1)])
def test_run_all_experiments_reports_failed_plotdata(tmp_path, monkeypatch, plotdata_rc,
                                                     expected):
    import importlib.util
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []

    def fake_cli(argv):
        calls.append(argv[0])
        if argv[0] == "run":
            (tmp_path / f"{argv[1]}.csv").write_text("")
            return 0
        return plotdata_rc

    monkeypatch.setattr(module, "cli", fake_cli)
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", "--out", str(tmp_path)])
    assert module.main() == expected
    # every results file is split even after a failure
    assert calls == ["run"] * 5 + ["plotdata"] * 5
