"""Command-line front end: run experiments, validate configs, emit plot data."""

from __future__ import annotations

import argparse
import os
import sys

from .config import config_hash, load_config, validate_config
from .errors import ConfigError, RedrawBudgetError
from .experiments import RUNNERS
from .results import emit_plotdata, write_results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdris",
        description="Multi-band reflecting-surface experiments: configure, simulate, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment and write CSV results")
    run.add_argument("experiment", choices=RUNNERS)
    run.add_argument("--config", default=None, help="YAML config (merged over defaults)")
    run.add_argument("--seed", type=int, default=None, help="override simulation.seed")
    run.add_argument("--trials", type=int, default=None, help="override simulation.trials")
    run.add_argument("--out", default=None, help="output directory (default: output.dir)")
    run.add_argument("--override", action="append", default=[], metavar="KEY.PATH=VALUE",
                     help="override any config entry (repeatable)")

    val = sub.add_parser("validate", help="check a config file against all invariants")
    val.add_argument("path")

    plot = sub.add_parser("plotdata", help="split a results CSV into plot-ready curve files")
    plot.add_argument("results")
    plot.add_argument("--out", default=None, help="output directory (default: beside the CSV)")
    return parser


def _validated(path: str | None, overrides=(), **simulation) -> dict | None:
    """The config of ``path`` and ``overrides`` with the given ``simulation``
    keys set, or None once every fault is printed as an ``error:`` line."""
    try:
        cfg, lines, source = load_config(path, overrides)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    for key, value in simulation.items():
        if value is not None and isinstance(cfg["simulation"], dict):  # else reported below
            cfg["simulation"][key] = value
    errors = validate_config(cfg, source, lines)
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return None if errors else cfg


def _cmd_run(args) -> int:
    cfg = _validated(args.config, args.override, seed=args.seed, trials=args.trials)
    if cfg is None:
        return 1
    out_dir = args.out or cfg["output"]["dir"]
    digest = config_hash(cfg)
    seed = cfg["simulation"]["seed"]
    try:
        tables = RUNNERS[args.experiment](cfg)
    except RedrawBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        for name, rows in tables.items():
            print(write_results(os.path.join(out_dir, f"{name}.csv"), rows,
                                args.experiment, digest, seed))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_plotdata(args) -> int:
    try:
        written = emit_plotdata(args.results, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "plotdata":
        return _cmd_plotdata(args)
    if _validated(args.path) is None:
        return 1
    print(f"{args.path}: valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
