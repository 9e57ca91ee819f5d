"""Command-line entry point: run scenario files and emit deterministic reports.

Exit status: 0 all checks pass (pointwise passes count), 1 on a check
failure, 2 on a parse or semantic error, 3 on an internal inconsistency:
two routes to one verdict disagreed (``EngineInconsistency``,
``ClosureFailure``), or the numeric oracle found a zero claim nonzero at a
sample point, though no check hands it claims today.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import get_scenario, list_corpus
from .dsl import parse_scenario, render_report
from .engine import RunConfig, RunResult, run_scenario
from .errors import ParseError, SemanticError


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kvgeom",
        description="Exact verification of Koszul-Vinberg structures from scenario files.",
    )
    p.add_argument(
        "--scenario",
        action="extend",
        nargs="+",
        default=[],
        metavar="PATH",
        help="scenario files (.kvs) or built-in scenario names",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--fail-fast", action="store_true", help="stop after the first failing check")
    p.add_argument("--list-corpus", action="store_true", help="list built-in scenarios and exit")
    return p


def _load(name: str) -> str:
    """The text of a scenario file or built-in; a file that is not UTF-8 is a ParseError at its first bad byte."""
    path = Path(name)
    if path.exists():
        data = path.read_bytes()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[:exc.start].decode("utf-8")
            line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
            raise ParseError(line, col, f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None
    entry = get_scenario(name)
    if entry is not None:
        return entry.text
    raise FileNotFoundError(f"no such scenario file or built-in: {name}")


def run(config: RunConfig) -> tuple[int, str]:
    """Run all configured scenarios; returns (exit code, report text)."""
    records = []
    offset = 0
    for name in config.scenarios:
        try:
            scenario = parse_scenario(_load(name))
        except FileNotFoundError as exc:
            return 2, f"error: {exc}\n"
        except OSError as exc:  # a directory, or a file that cannot be read
            return 2, f"error: {name}: {exc.strerror or exc}\n"
        except (ParseError, SemanticError) as exc:
            return 2, f"error: {name}: {exc}\n"
        result = run_scenario(
            scenario,
            seed=config.seed,
            samples=config.samples,
            fail_fast=config.fail_fast,
            check_offset=offset,
        )
        offset += len(scenario.checks)
        records.extend(result.records)
        if config.fail_fast and result.any_failure:
            break
    combined = RunResult(records)
    report = render_report(combined.outcomes, config.format)
    return combined.exit_code, report


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_corpus:
        sys.stdout.write(list_corpus())
        return 0
    if not args.scenario:
        sys.stderr.write("error: provide --scenario PATH (or --list-corpus)\n")
        return 2
    try:
        config = RunConfig(
            scenarios=tuple(args.scenario),
            format=args.format,
            seed=args.seed,
            samples=args.samples,
            fail_fast=args.fail_fast,
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    code, report = run(config)
    if code == 2:
        sys.stderr.write(report)
    else:
        sys.stdout.write(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
