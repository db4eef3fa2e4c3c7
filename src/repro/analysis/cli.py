"""The ``lint`` and ``races`` verbs of ``python -m repro``.

::

    python -m repro lint src/repro
    python -m repro lint --format json --strict
    python -m repro races
    python -m repro races tests/fixtures/racy_ticker.py

``lint`` exits non-zero when any error-severity finding survives the
inline ``# lint:`` pragmas (``--strict`` also fails on warnings).
``races`` runs the static same-cycle race pass (RACE001/RACE002) and
exits non-zero on any finding that no pragma suppresses.  The runtime
sanitizers are armed by ``python -m repro run <benchmark> --sanitize``.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from repro.analysis.lint import lint_paths, summarize
from repro.analysis.rules import ALL_RULES

DEFAULT_LINT_PATHS = ["src/repro"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Static determinism lint and race pass.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    lint = verbs.add_parser("lint", help="run hdpat-lint over source trees")
    lint.add_argument(
        "paths", nargs="*", default=None,
        help=f"files/directories to lint (default: {DEFAULT_LINT_PATHS})",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format (default %(default)s)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="warnings also fail the run (default: errors only)",
    )

    races = verbs.add_parser(
        "races", help="static same-cycle race pass (RACE001/RACE002)"
    )
    races.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to analyse (default: the deterministic "
             "simulation trees; see repro.analysis.races)",
    )
    races.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format (default %(default)s)",
    )
    return parser


def run_lint(args: argparse.Namespace) -> int:
    findings = lint_paths(args.paths or DEFAULT_LINT_PATHS)
    summary = summarize(findings)
    if args.format == "json":
        print(json.dumps({
            "findings": [finding.to_dict() for finding in findings],
            "summary": summary,
            "rules": sorted(rule.id for rule in ALL_RULES),
        }, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(f"{finding.path}:{finding.line}:{finding.col}: "
                  f"{finding.rule_id} [{finding.severity}] {finding.message}")
        print(f"hdpat-lint: {summary['errors']} error(s), "
              f"{summary['warnings']} warning(s)")
    failed = summary["errors"] > 0 or (args.strict and summary["warnings"] > 0)
    return 1 if failed else 0


def run_races(args: argparse.Namespace) -> int:
    # Imported lazily: the lint verb stays importable on its own.
    from repro.analysis.races import DEFAULT_RACE_PATHS, analyze_paths

    findings = analyze_paths(args.paths or DEFAULT_RACE_PATHS)
    if args.format == "json":
        print(json.dumps({
            "findings": [finding.to_dict() for finding in findings],
            "summary": summarize(findings),
        }, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(f"{finding.path}:{finding.line}: "
                  f"{finding.rule_id} {finding.message}")
        print(f"hdpat-races: {len(findings)} finding(s)")
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "lint":
        return run_lint(args)
    return run_races(args)
