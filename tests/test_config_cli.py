import copy
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bdris
from bdris.cli import main
from bdris.config import (DEFAULT_CONFIG, apply_overrides, config_hash,
                          dbm_to_watts, load_config, validate_config)
from bdris.results import emit_plotdata, read_results, write_results
from bdris.metrics import AggregateResult, ResultRow

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

    def test_shipped_yaml_matches_defaults(self):
        import yaml
        with open("configs/default.yaml", "r", encoding="utf-8") as fh:
            shipped = yaml.safe_load(fh)
        assert shipped == DEFAULT_CONFIG


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


class TestOverridesAndHash:
    def test_override_types(self):
        cfg = apply_overrides(copy.deepcopy(DEFAULT_CONFIG),
                              ["simulation.trials=7",
                               "scenario.direct_links=available",
                               "experiments.freq-response.d_values=[4, 8]"])
        assert cfg["simulation"]["trials"] == 7
        assert cfg["scenario"]["direct_links"] == "available"
        assert cfg["experiments"]["freq-response"]["d_values"] == [4, 8]

    def test_bad_override_rejected(self):
        from bdris.errors import ConfigError
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no_equals_sign"])

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
        rows = (
            ResultRow("frequency_ghz", 7.0, "fully-connected D=8", "received_power_w",
                      1.25e-4, 1e-6, 2),
            ResultRow("frequency_ghz", 7.5, "fully-connected D=8", "received_power_w",
                      1.5e-4, 2e-6, 2),
            ResultRow("frequency_ghz", 7.0, "single-connected D=8", "received_power_w",
                      0.5e-4, 1e-6, 2),
        )
        return AggregateResult(rows)

    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_results(path, self.sample_result(), "freq-response", "ab" * 32, 7)
        header, result = read_results(path)
        assert header["config_sha256"] == "ab" * 32
        assert header["seed"] == "7"
        assert result.rows == self.sample_result().rows

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
        write_results(path, AggregateResult(()), "freq-response", "00" * 32, 7)
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
        assert not logging.getLogger("bdris").handlers  # removed after the run

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
