"""Command-line front end: run experiments, validate configs, emit plot data."""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import (EXPERIMENTS, config_hash, load_config, validate_config)
from .errors import ConfigError, RedrawBudgetError
from .experiments import RUNNERS
from .results import emit_plotdata, write_results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdris",
        description="Multi-band reflecting-surface experiments: configure, simulate, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment and write CSV results")
    run.add_argument("experiment", choices=EXPERIMENTS)
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


class _LevelPrefix(logging.Formatter):  # "warning: ...", like the "error:" lines
    def format(self, record: logging.LogRecord) -> str:
        return f"{record.levelname.lower()}: {record.getMessage()}"


def _cmd_run(args) -> int:
    try:
        cfg, lines, source = load_config(args.config, args.override)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg["simulation"]["seed"] = args.seed
    if args.trials is not None:
        cfg["simulation"]["trials"] = args.trials
    errors = validate_config(cfg, source, lines)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    out_dir = args.out or cfg["output"]["dir"]
    digest = config_hash(cfg)
    seed = cfg["simulation"]["seed"]
    handler = logging.StreamHandler()  # the current sys.stderr
    handler.setFormatter(_LevelPrefix())
    logging.getLogger("bdris").addHandler(handler)
    try:
        tables = RUNNERS[args.experiment](cfg)
    except RedrawBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logging.getLogger("bdris").removeHandler(handler)
    for name, table in tables.items():
        path = write_results(os.path.join(out_dir, f"{name}.csv"), table,
                             args.experiment, digest, seed)
        print(path)
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg, lines, source = load_config(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = validate_config(cfg, source, lines)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print(f"{args.path}: valid")
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
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_plotdata(args)


if __name__ == "__main__":
    sys.exit(main())
