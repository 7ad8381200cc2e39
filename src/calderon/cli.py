"""Command line interface: run experiments from JSON configs.

Subcommands:
    run <config.json> [--out DIR] [--seed K]   run the configured experiment
    list                                       list experiments and parameters
    schema                                     print the config JSON schema

Exit code 0 means every declared tolerance was met; 1 means a tolerance
failed; 2 means a configuration or runtime error.  ``list`` prints each
experiment's params from the table that ``run`` validates them against.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import CONFIG_SCHEMA, load_config
from .errors import CalderonError, ConfigError
from .experiments import experiment_descriptions, run_config

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calderon",
        description="Forward solvers and verification experiments for the "
        "local and nonlocal conductivity problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("config", help="path to the JSON configuration")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    sub.add_parser("list", help="list experiments and their parameters")
    sub.add_parser("schema", help="print the configuration JSON schema")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        print(experiment_descriptions())
        return 0
    if args.command == "schema":
        print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))
        return 0
    try:
        cfg = load_config(args.config)
        outdir = args.out or cfg.output or "out"
        summary = run_config(cfg, outdir, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CalderonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if summary.passed else "FAIL"
    print(f"[{status}] {summary.result.name}  ({summary.wall_clock_s:.2f}s)")
    print(f"summary written to {outdir}/summary.json")
    return 0 if summary.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
