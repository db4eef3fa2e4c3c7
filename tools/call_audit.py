"""Call audit: list functions under ``src/repro`` that no test ever calls.

A pytest plugin (standard library only).  It installs a ``sys.setprofile``
hook for the whole session, records every Python code object entered,
and at the end prints each ``def`` in ``src/repro`` whose code object
never ran.  Run it over every suite that exercises the package::

    PYTHONPATH=src:tools python -m pytest -p call_audit -q \\
        tests figures perfbench

Only the test process is observed: code that runs only in subprocesses
(pool workers, service hosts, CLI verbs invoked via ``subprocess``) is
reported as never called, as are ``__repr__``s and abstract methods.
Read the list as candidates for deletion, not as a verdict.  The hook
slows the suite several-fold.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from typing import List, Set, Tuple

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

_entered: Set[object] = set()


def _profile(frame, event, _arg) -> None:
    if event == "call":
        _entered.add(frame.f_code)


# Installed on import (``-p`` loads the plugin before any conftest), so
# calls made while the package is being imported are seen too.
threading.setprofile(_profile)
sys.setprofile(_profile)


def _definitions(path: Path) -> List[Tuple[int, str]]:
    """``(first line, qualified name)`` of every def in ``path``; the first
    line is the first decorator's, matching ``co_firstlineno``."""
    found: List[Tuple[int, str]] = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = [d.lineno for d in child.decorator_list]
                found.append((min(lines + [child.lineno]), prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def uncalled() -> List[str]:
    """``path:line qualname`` for every package def never entered."""
    ran = {
        (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        for code in _entered
    }
    report = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, name in _definitions(path):
            if (str(path), line) not in ran:
                relative = path.relative_to(PACKAGE.parent.parent)
                report.append(f"{relative}:{line} {name}")
    return report


def pytest_terminal_summary(terminalreporter) -> None:
    sys.setprofile(None)
    threading.setprofile(None)
    report = uncalled()
    terminalreporter.section(f"call audit: {len(report)} uncalled defs")
    for entry in report:
        terminalreporter.write_line(entry)
