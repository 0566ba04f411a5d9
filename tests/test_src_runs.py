"""The package holds only what a run executes.

Every ``bdris`` command runs once on a tiny config under ``sys.setprofile``,
and each function defined in ``src/bdris/*.py`` must have been called, except
those ``ALLOWED`` names, which must not have been.  A formula only tests use
belongs in ``tests/reference_model.py``.
"""

import ast
import os
import sys
from pathlib import Path

import bdris
from bdris import matrixkit
from bdris.cli import main
from bdris.experiments import RUNNERS

# Functions no command calls, each with its reason.
ALLOWED = {
    "experiments.solve_trials": "the library entry point; criteria 5 and 6 and "
                                "scripts/quick_demo.py call it",
}

# One trial, D = 4 and 3 conditional-gradient iterations: one grid point per
# experiment, for every architecture and link mode.
CONFIG = """\
simulation: {trials: 1}
optimization: {fw_iterations: 3}
experiments:
  freq-response: {d_values: [4], grid_ghz: {start: 7.4, stop: 7.4, step: 0.5}}
  target-shift: {targets_ghz: [7.4], half_span_ghz: 0.1, step_ghz: 0.5, d: 4}
  per-bs-power: {d_grid: [4], weight_sets: [[0.3, 0.7]]}
  network-power: {d_grid: [4], weight_sets: [[0.3, 0.7]]}
  interference: {ris_positions_m: [[60.0, 20.0]], d_grid: [4]}
"""


def defined_functions() -> dict:
    """Per ``module.qualname`` of each def in the package, its file and the lines
    its code object may start at: its own, or a decorator's."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}{getattr(child, 'name', '')}"
            if isinstance(child, ast.FunctionDef):
                found[name] = path, {child.lineno, *(d.lineno for d in child.decorator_list)}
            visit(child, f"{name}." if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                  else prefix, path)

    for path in Path(bdris.__file__).resolve().parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.", str(path))
    return found


def test_every_function_runs(tmp_path, capsys):
    config, out = tmp_path / "tiny.yaml", tmp_path / "out"
    config.write_text(CONFIG)
    matrixkit.strict_upper_indices.cache_clear()  # a cached call runs no code
    called, previous = set(), sys.getprofile()
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(
        (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
    try:
        codes = [main(["validate", str(config)]),
                 *(main(["run", name, "--config", str(config), "--out", str(out)])
                   for name in RUNNERS),
                 main(["plotdata", str(out / "freq_response.csv")])]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * 7, capsys.readouterr().err
    called = {(os.path.realpath(path), line) for path, line in called}
    functions = defined_functions()
    assert set(ALLOWED) <= set(functions)
    ran = {name for name, (path, lines) in functions.items()
           if any((path, line) in called for line in lines)}
    never = sorted(set(functions) - ran - set(ALLOWED))
    assert not never, "no command calls " + ", ".join(never)
    stale = sorted(ran & set(ALLOWED))
    assert not stale, "allowed, yet a command calls " + ", ".join(stale)
