"""hdpat-lint: file walking, layer mapping and pragmas.

The driver parses each module once, runs every applicable
:class:`~repro.analysis.rules.Rule`, and drops the findings an inline
pragma suppresses — the one suppression mechanism: a ``# lint:`` comment
on the offending statement, ``# lint: disable=WAL001`` (or
``disable=all``), or a rule's named tag such as
``# lint: allow-wallclock``.  Every suppression therefore sits next to
the code it excuses.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.rules import (
    ALL_RULES,
    Finding,
    Rule,
    iter_rules,
)

_PRAGMA_RE = re.compile(r"#\s*lint:\s*(?P<body>[^#]*)")


def layer_of(path: str) -> str:
    """Map a file path to its lint layer.

    The layer is the package segment directly under ``repro``
    (``src/repro/noc/link.py`` -> ``noc``); top-level modules such as
    ``units.py`` map to ``root``.  Paths outside a ``repro`` package also
    map to ``root`` — the strictest scope — so ad-hoc files get the full
    deterministic rule set unless a layer is given explicitly.
    """
    parts = os.path.normpath(path).split(os.sep)
    if "repro" in parts:
        index = parts.index("repro")
        remainder = parts[index + 1:]
        if len(remainder) >= 2:
            return remainder[0]
    return "root"


def _pragma_suppressions(line: str) -> Tuple[Set[str], Set[str]]:
    """Parse ``# lint:`` pragmas on a source line.

    Returns ``(disabled_rule_ids, allow_tags)``; ``disable=all`` yields
    the sentinel id ``"all"``.
    """
    match = _PRAGMA_RE.search(line)
    if not match:
        return set(), set()
    disabled: Set[str] = set()
    tags: Set[str] = set()
    for token in match.group("body").replace(",", " ").split():
        if token.startswith("disable="):
            disabled.update(
                part for part in token[len("disable="):].split(",") if part
            )
        elif token.startswith("allow-"):
            tags.add(token[len("allow-"):])
    return disabled, tags


def statement_spans(tree: ast.AST) -> Dict[int, Tuple[int, int]]:
    """Map each source line to its innermost statement's line range.

    For simple statements the range is the whole statement (a call
    spanning lines honours a pragma on any of them); for compound
    statements (``if``/``for``/``def``...) only the *header* lines up to
    the first body statement count, so a pragma inside a function does
    not blanket the function.
    """
    spans: Dict[int, Tuple[int, int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or start
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        for line in range(start, end + 1):
            previous = spans.get(line)
            if previous is None or (end - start) < (previous[1] - previous[0]):
                spans[line] = (start, end)
    return spans


def suppressions_at(
    lines: Sequence[str],
    spans: Dict[int, Tuple[int, int]],
    line_no: int,
) -> Tuple[Set[str], Set[str]]:
    """Union of pragma suppressions over the statement containing ``line_no``."""
    start, end = spans.get(line_no, (line_no, line_no))
    disabled: Set[str] = set()
    tags: Set[str] = set()
    for pragma_line in range(start, end + 1):
        if 0 < pragma_line <= len(lines):
            line_disabled, line_tags = _pragma_suppressions(
                lines[pragma_line - 1]
            )
            disabled |= line_disabled
            tags |= line_tags
    return disabled, tags


def lint_source(
    source: str,
    path: str = "<string>",
    layer: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings."""
    resolved_layer = layer if layer is not None else layer_of(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            rule_id="PARSE",
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"syntax error: {exc.msg}",
            severity="error",
            layer=resolved_layer,
        )]
    lines = source.splitlines()
    spans = statement_spans(tree)
    findings: List[Finding] = []
    for rule in iter_rules(resolved_layer, rules):
        severity = rule.severity_for(resolved_layer)
        for line_no, col, message in rule.check(tree, resolved_layer):
            disabled, tags = suppressions_at(lines, spans, line_no)
            if "all" in disabled or rule.id in disabled:
                continue
            if rule.pragma is not None and rule.pragma[len("allow-"):] in tags:
                continue
            findings.append(Finding(
                rule_id=rule.id,
                path=path,
                line=line_no,
                col=col,
                message=message,
                severity=severity,
                layer=resolved_layer,
            ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files and directories into sorted ``.py`` file paths."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                    and not d.endswith(".egg-info")
                ]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        elif path.endswith(".py"):
            yield path


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every python file under ``paths``; returns the findings."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(lint_source(source, path=file_path, rules=rules))
    return findings


def summarize(findings: Sequence[Finding]) -> Dict[str, int]:
    """Finding counts by rule id, plus error/warning totals."""
    summary: Dict[str, int] = {"errors": 0, "warnings": 0}
    for finding in findings:
        summary[finding.rule_id] = summary.get(finding.rule_id, 0) + 1
        if finding.severity == "error":
            summary["errors"] += 1
        else:
            summary["warnings"] += 1
    return summary


__all__ = [
    "ALL_RULES",
    "Finding",
    "Rule",
    "iter_python_files",
    "layer_of",
    "lint_paths",
    "lint_source",
    "statement_spans",
    "summarize",
    "suppressions_at",
]
