"""Static same-cycle race pass: the other half of ``RaceSanitizer``.

The dynamic detector (:mod:`repro.analysis.sanitizers`) catches the races
a run actually exercises; this pass over-approximates the same conflict
model at the source level so a race can be flagged before any workload
hits it.  Per scanned module it:

1. builds a callback-registration graph from ``schedule`` /
   ``schedule_at`` call sites — a callback is ``self.method``, a lambda,
   or a local ``def`` handed to the scheduler from inside a class method;
2. summarises each callback's ``self.<field>`` reads and writes, with one
   level of self-call inlining (``lambda: self._apply(e)`` inherits
   ``_apply``'s effects, matching how thin trampoline lambdas are used
   throughout the tree);
3. reports, per class, every field that two *distinct* registered
   callbacks could touch in the same cycle with at least one write:
   ``RACE001`` (write-write) and ``RACE002`` (read-write), anchored at
   the first writer's access line.

The pass is deliberately class-granular — it cannot prove two callbacks
share an instance or a cycle — so findings are *statically possible*
races; a reviewed benign one is suppressed inline, with its reason, by
``# lint: disable=RACE001`` or ``# lint: allow-race``.  Findings reuse
the hdpat-lint :class:`~repro.analysis.rules.Finding` and pragma
machinery.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import (
    iter_python_files,
    layer_of,
    statement_spans,
    suppressions_at,
)
from repro.analysis.rules import Finding

RACE_WW = "RACE001"
RACE_RW = "RACE002"
RACE_PRAGMA_TAG = "race"

#: The deterministic simulation trees the race pass scans by default.
DEFAULT_RACE_PATHS = [
    "src/repro/sim",
    "src/repro/noc",
    "src/repro/gpm",
    "src/repro/iommu",
    "src/repro/tlb",
    "src/repro/mem",
    "src/repro/faults",
]

#: Fields the dynamic detector also skips on read: infrastructure every
#: callback touches (``self.sim.schedule`` reads ``sim``) that can never
#: be a meaningful race partner.
_SKIP_READS = frozenset({"sim", "name"})

_SCHEDULE_NAMES = ("schedule", "schedule_at")


@dataclass
class _Summary:
    """Per-callback ``self`` effects: field -> first access line."""

    reads: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, int] = field(default_factory=dict)
    #: Self-methods invoked (for one-level inlining): name -> call line.
    calls: Dict[str, int] = field(default_factory=dict)

    def merge_effects(self, other: "_Summary") -> None:
        """Fold ``other``'s reads/writes (not its calls) into this summary."""
        for attr, line in other.reads.items():
            _note(self.reads, attr, line)
        for attr, line in other.writes.items():
            _note(self.writes, attr, line)


def _note(table: Dict[str, int], attr: str, line: int) -> None:
    previous = table.get(attr)
    if previous is None or line < previous:
        table[attr] = line


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _direct_effects(nodes: Sequence[ast.AST]) -> _Summary:
    """Summarise ``self`` accesses executed directly by ``nodes``.

    Nested ``def``/``lambda`` bodies are skipped — their effects happen
    when *they* run, not when the enclosing callback does.  Subscript
    mutation (``self.stats[k] += 1``) counts as a *read* of the
    attribute, matching the dynamic hooks, which only see the
    ``__getattribute__`` on the container.
    """
    summary = _Summary()
    stack: List[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Attribute) and _is_self(target.value):
                _note(summary.reads, target.attr, target.lineno)
                _note(summary.writes, target.attr, target.lineno)
                stack.append(node.value)
                continue
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and _is_self(func.value):
                _note(summary.calls, func.attr, func.lineno)
                stack.extend(node.args)
                stack.extend(kw.value for kw in node.keywords)
                continue
        if isinstance(node, ast.Attribute) and _is_self(node.value):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                _note(summary.writes, node.attr, node.lineno)
            elif node.attr not in _SKIP_READS:
                _note(summary.reads, node.attr, node.lineno)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return summary


@dataclass
class _Callback:
    """One callback registration: display key + its direct effects."""

    key: str
    line: int
    direct: _Summary


def _local_defs(method: ast.AST) -> Dict[str, ast.FunctionDef]:
    """Functions defined anywhere inside ``method``, by name."""
    defs: Dict[str, ast.FunctionDef] = {}
    for node in ast.walk(method):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, node)
    return defs


def _resolve_callback(
    cb: ast.AST,
    method_name: str,
    methods: Dict[str, _Summary],
    local_defs: Dict[str, ast.FunctionDef],
) -> Optional[_Callback]:
    """Map a ``schedule(..., <cb>)`` argument to a callback summary."""
    if isinstance(cb, ast.Attribute) and _is_self(cb.value):
        direct = methods.get(cb.attr)
        if direct is None:
            return None  # inherited or dynamic; out of scope for the pass
        return _Callback(key=cb.attr, line=cb.lineno, direct=direct)
    if isinstance(cb, ast.Lambda):
        return _Callback(
            key=f"{method_name}.<lambda L{cb.lineno}>",
            line=cb.lineno,
            direct=_direct_effects([cb.body]),
        )
    if isinstance(cb, ast.Name):
        local = local_defs.get(cb.id)
        if local is not None:
            return _Callback(
                key=f"{method_name}.{cb.id}",
                line=cb.lineno,
                direct=_direct_effects(local.body),
            )
    return None


def _expand(cb: _Callback, methods: Dict[str, _Summary]) -> _Summary:
    """One level of self-call inlining over the callback's direct effects."""
    expanded = _Summary(
        reads=dict(cb.direct.reads),
        writes=dict(cb.direct.writes),
        calls=dict(cb.direct.calls),
    )
    for callee in cb.direct.calls:
        callee_summary = methods.get(callee)
        if callee_summary is not None:
            expanded.merge_effects(callee_summary)
    return expanded


def _class_callbacks(
    class_node: ast.ClassDef,
) -> Tuple[Dict[str, _Summary], Dict[str, _Callback]]:
    """Method summaries + registered callbacks for one class body."""
    method_nodes = [
        node for node in class_node.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    methods = {node.name: _direct_effects(node.body) for node in method_nodes}
    registered: Dict[str, _Callback] = {}
    for method in method_nodes:
        local_defs = _local_defs(method)
        for node in ast.walk(method):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SCHEDULE_NAMES
                    and len(node.args) >= 2):
                continue
            callback = _resolve_callback(
                node.args[1], method.name, methods, local_defs
            )
            if callback is not None and callback.key not in registered:
                registered[callback.key] = callback
    return methods, registered


def _class_conflicts(
    class_node: ast.ClassDef,
    path: str,
    layer: str,
) -> Iterator[Finding]:
    methods, registered = _class_callbacks(class_node)
    if len(registered) < 2:
        return
    expanded = {
        key: _expand(cb, methods) for key, cb in registered.items()
    }
    fields: Set[str] = set()
    for summary in expanded.values():
        fields.update(summary.writes)
    for attr in sorted(fields):
        writers = sorted(
            (key, summary.writes[attr])
            for key, summary in expanded.items() if attr in summary.writes
        )
        readers = sorted(
            key for key, summary in expanded.items()
            if attr in summary.reads and attr not in summary.writes
        )
        anchor = min(line for _, line in writers)
        writer_keys = [key for key, _ in writers]
        if len(writers) > 1:
            yield Finding(
                rule_id=RACE_WW,
                path=path,
                line=anchor,
                col=0,
                message=(
                    f"{class_node.name}.{attr} written by same-cycle "
                    f"callbacks {', '.join(writer_keys)}; order is fixed "
                    f"only by insertion seq"
                ),
                severity="error",
                layer=layer,
            )
        elif readers:
            yield Finding(
                rule_id=RACE_RW,
                path=path,
                line=anchor,
                col=0,
                message=(
                    f"{class_node.name}.{attr} written by {writer_keys[0]} "
                    f"and read by same-cycle callback(s) "
                    f"{', '.join(readers)}; order is fixed only by "
                    f"insertion seq"
                ),
                severity="error",
                layer=layer,
            )


def analyze_source(
    source: str,
    path: str = "<string>",
    layer: Optional[str] = None,
) -> List[Finding]:
    """Run the static race pass over one module's source text."""
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
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for finding in _class_conflicts(node, path, resolved_layer):
            disabled, tags = suppressions_at(lines, spans, finding.line)
            if "all" in disabled or finding.rule_id in disabled:
                continue
            if RACE_PRAGMA_TAG in tags:
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    return findings


def analyze_paths(paths: Sequence[str]) -> List[Finding]:
    """Race-analyse every python file under ``paths``; returns the
    findings, like :func:`repro.analysis.lint.lint_paths`."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(analyze_source(source, path=file_path))
    return findings


__all__ = [
    "DEFAULT_RACE_PATHS",
    "RACE_RW",
    "RACE_WW",
    "analyze_paths",
    "analyze_source",
]
