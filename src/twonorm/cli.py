"""Command-line entry point.

Exit codes: 0 on success, 1 when a campaign detects a failed check or runs
out of memory, 2 for configuration or usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .campaigns import run_geometry, run_section_demo, run_sqrt_bench, run_validate
from .config import RunConfig, load_config
from .errors import TwoNormError

__all__ = ["main", "console_main"]

_COMMANDS = {
    "validate": (run_validate, "run the randomized self-check suites"),
    "section-demo": (run_section_demo, "tabulate cross sections at graded distances"),
    "sqrt-bench": (run_sqrt_bench, "benchmark the series square root against the oracle"),
    "geometry": (run_geometry, "tabulate curve lengths and distance bounds"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twonorm",
        description="Deterministic campaigns for the two-norm manifold package.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON configuration file")
        sp.add_argument("--seed", type=int, help="override the configured seed")
        sp.add_argument("--out", metavar="DIR", help="override the output directory")
        sp.add_argument("--trials", type=int, help="override the configured trial count")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["output_dir"] = args.out
        if args.trials is not None:
            overrides["trials"] = args.trials
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
    except (ValueError, TypeError) as exc:
        print(f"twonorm: configuration error: {exc}", file=sys.stderr)
        return 2
    runner = _COMMANDS[args.command][0]
    try:
        return int(runner(cfg))
    except TwoNormError as exc:
        print(f"twonorm: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises a private subclass; name the public one
        print(f"twonorm: MemoryError: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"twonorm: configuration error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())
