"""hdpat-lint rules: AST checks for simulator determinism invariants.

Each rule is a :class:`Rule` subclass with a stable id, a layer scope, and
per-layer severity.  The driver (:mod:`repro.analysis.lint`) maps every
file under ``src/repro`` to a *layer* (its first package segment:
``sim``, ``noc``, ``gpm`` ... top-level modules land in ``root``) and runs
the rules whose scope covers that layer.

Layer taxonomy
--------------
*Deterministic* layers hold code that executes inside (or feeds state
into) the event-driven simulation; any wall-clock read or unseeded
randomness there silently breaks the "same config + seed => byte-identical
result" contract the disk result cache depends on.  The *host* layers
(``experiments``, ``obs``, ``exec``, ``analysis``) legitimately read the
wall clock for progress reporting and profiling.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Set, Tuple

#: Layers whose code must be bit-deterministic.
DETERMINISTIC_LAYERS = frozenset({
    "sim", "noc", "gpm", "tlb", "iommu", "mem", "core", "workloads",
    "stats", "filters", "system", "config", "root", "faults",
})

#: Host-side layers allowed to read the wall clock (reporting, profiling,
#: process pools).
WALLCLOCK_ALLOWED_LAYERS = frozenset({"experiments", "obs", "exec", "analysis"})

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: ``time`` module members that read the host clock.
_WALL_TIME_NAMES = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})
#: ``datetime``/``date`` constructors that read the host clock.
_WALL_DATETIME_NAMES = frozenset({"now", "utcnow", "today"})

_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
_CYCLE_NAME_RE = re.compile(r"(^now$|cycles?$|_until$)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    severity: str
    layer: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
            "layer": self.layer,
        }


class Rule:
    """Base class: one invariant, checked per-module over its AST.

    ``layers`` of ``None`` means the rule applies everywhere; otherwise it
    is skipped for files outside the named layers.  ``warning_layers``
    downgrades the finding severity in the named layers.
    """

    id: str = ""
    title: str = ""
    #: Pragma tag (beyond the generic ``disable=<id>``) that suppresses
    #: this rule on a line, e.g. ``# lint: allow-wallclock``.
    pragma: Optional[str] = None
    layers: Optional[frozenset] = None
    warning_layers: frozenset = frozenset()

    def applies_to(self, layer: str) -> bool:
        return self.layers is None or layer in self.layers

    def severity_for(self, layer: str) -> str:
        return SEVERITY_WARNING if layer in self.warning_layers else SEVERITY_ERROR

    def check(self, tree: ast.AST, layer: str) -> Iterator[Tuple[int, int, str]]:
        """Yield ``(line, col, message)`` for each violation."""
        raise NotImplementedError


class WallClockRule(Rule):
    """WAL001: no host wall-clock reads in deterministic layers.

    Flags ``import time`` / ``import datetime``, ``from time import
    perf_counter`` (and friends), and ``time.time()``-style attribute
    calls.  Simulated time lives in ``Simulator.now``; host timing belongs
    in the allowlisted layers or behind ``# lint: allow-wallclock``.
    """

    id = "WAL001"
    title = "wall-clock read in deterministic layer"
    pragma = "allow-wallclock"
    layers = DETERMINISTIC_LAYERS

    def check(self, tree: ast.AST, layer: str) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("time", "datetime"):
                        yield (node.lineno, node.col_offset,
                               f"import of {alias.name!r} in deterministic "
                               f"layer {layer!r}; use Simulator.now for "
                               f"simulated time")
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")[0]
                wall = (
                    _WALL_TIME_NAMES if module == "time"
                    else _WALL_DATETIME_NAMES | {"datetime", "date"}
                    if module == "datetime" else frozenset()
                )
                for alias in node.names:
                    if alias.name in wall:
                        yield (node.lineno, node.col_offset,
                               f"import of {module}.{alias.name} in "
                               f"deterministic layer {layer!r}")
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                base = func.value
                if (isinstance(base, ast.Name) and base.id == "time"
                        and func.attr in _WALL_TIME_NAMES):
                    yield (node.lineno, node.col_offset,
                           f"time.{func.attr}() reads the host clock in "
                           f"deterministic layer {layer!r}")
                elif (isinstance(base, ast.Name)
                        and base.id in ("datetime", "date")
                        and func.attr in _WALL_DATETIME_NAMES):
                    yield (node.lineno, node.col_offset,
                           f"{base.id}.{func.attr}() reads the host clock "
                           f"in deterministic layer {layer!r}")


class ModuleRandomRule(Rule):
    """RND001: no module-level ``random.*`` calls in deterministic layers.

    The module-level functions share one hidden global generator whose
    state leaks across components and runs.  Seeded ``random.Random(...)``
    instances stay legal.
    """

    id = "RND001"
    title = "module-level random.* call in deterministic layer"
    layers = DETERMINISTIC_LAYERS

    def check(self, tree: ast.AST, layer: str) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                    and func.attr not in ("Random", "SystemRandom")):
                yield (node.lineno, node.col_offset,
                       f"random.{func.attr}() uses the global generator; "
                       f"thread a seeded random.Random instance instead")


class UnseededRandomRule(Rule):
    """RND002: ``random.Random()`` without a seed argument.

    An unseeded generator initialises from OS entropy, so two runs of the
    same config diverge.  Applies in every layer.
    """

    id = "RND002"
    title = "unseeded random.Random()"

    def check(self, tree: ast.AST, layer: str) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            func = node.func
            unseeded = (
                (isinstance(func, ast.Attribute)
                 and isinstance(func.value, ast.Name)
                 and func.value.id == "random" and func.attr == "Random")
                or (isinstance(func, ast.Name) and func.id == "Random")
            )
            if unseeded:
                yield (node.lineno, node.col_offset,
                       "random.Random() without a seed draws OS entropy; "
                       "pass an explicit seed")


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _scope_statements(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes.

    Assignments and iterations inside a nested ``def``/``lambda`` belong
    to *that* scope's taint analysis, not the enclosing one.  Yields in
    source order so taint can propagate through assignment chains.
    """
    stack = list(ast.iter_child_nodes(scope))[::-1]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(list(ast.iter_child_nodes(node))[::-1])


class SetIterationRule(Rule):
    """ORD001: no iteration over set expressions or set-valued names.

    Set iteration order depends on insertion history and hash seeds; when
    the loop body schedules events or emits output, that order leaks into
    results.  Beyond literal set expressions, a light per-scope taint
    pass tracks names whose *every* assignment in the scope is set-valued
    (``seen = set()``, ``keys = frozenset(...)``) and dicts built from
    them via ``dict.fromkeys(tainted_set)``: iterating such a name (or
    its ``.keys()``), and popping an *arbitrary* element with a zero-arg
    ``.pop()``, leak the same unstable order.  Wrap the set in
    ``sorted(...)`` to pin it.
    """

    id = "ORD001"
    title = "iteration over a set expression (unstable order)"
    warning_layers = WALLCLOCK_ALLOWED_LAYERS

    def check(self, tree: ast.AST, layer: str) -> Iterator[Tuple[int, int, str]]:
        scopes = [tree] + [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            yield from self._check_scope(scope)

    def _taints(self, scope: ast.AST) -> Tuple[Set[str], Set[str]]:
        """Names provably set-valued / fromkeys-dict-valued in ``scope``.

        Conservative in the safe direction: a single non-set rebinding
        (including ``for`` targets and augmented assignment) clears the
        taint, so only names that are sets on *every* path are flagged.
        """
        set_votes: dict = {}
        dict_votes: dict = {}

        def vote(table: dict, name: str, is_tainted: bool) -> None:
            table[name] = table.get(name, True) and is_tainted

        for node in _scope_statements(scope):
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
                if not names:
                    continue
                tainted_set = (
                    _is_set_expression(node.value)
                    or (isinstance(node.value, ast.Name)
                        and set_votes.get(node.value.id) is True)
                )
                tainted_dict = self._is_fromkeys_of_set(node.value, set_votes)
                for name in names:
                    vote(set_votes, name, tainted_set)
                    vote(dict_votes, name, tainted_dict)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                target = node.target
                if isinstance(target, ast.Name):
                    value = getattr(node, "value", None)
                    vote(set_votes, target.id,
                         value is not None and _is_set_expression(value))
                    vote(dict_votes, target.id, False)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for name in ast.walk(node.target):
                    if isinstance(name, ast.Name):
                        vote(set_votes, name.id, False)
                        vote(dict_votes, name.id, False)
        tainted_sets = {name for name, ok in set_votes.items() if ok}
        tainted_dicts = {name for name, ok in dict_votes.items() if ok}
        return tainted_sets, tainted_dicts

    @staticmethod
    def _is_fromkeys_of_set(node: ast.AST, set_votes: dict) -> bool:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fromkeys"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "dict"
                and node.args):
            return False
        source = node.args[0]
        return _is_set_expression(source) or (
            isinstance(source, ast.Name)
            and set_votes.get(source.id) is True
        )

    def _check_scope(self, scope: ast.AST) -> Iterator[Tuple[int, int, str]]:
        tainted_sets, tainted_dicts = self._taints(scope)

        def is_unordered(target: ast.AST) -> Optional[str]:
            if _is_set_expression(target):
                return ("iterating a set yields hash-dependent order; "
                        "wrap it in sorted(...) before it can reach "
                        "event scheduling or output")
            if isinstance(target, ast.Name):
                if target.id in tainted_sets:
                    return (f"{target.id!r} is set-valued here; iterating "
                            f"it yields hash-dependent order — wrap it in "
                            f"sorted(...)")
                if target.id in tainted_dicts:
                    return (f"{target.id!r} was built with dict.fromkeys "
                            f"over a set; its iteration order inherits the "
                            f"set's hash order — sort the keys first")
            if (isinstance(target, ast.Call)
                    and isinstance(target.func, ast.Attribute)
                    and target.func.attr == "keys"
                    and not target.args
                    and isinstance(target.func.value, ast.Name)
                    and target.func.value.id in tainted_dicts):
                return (f"{target.func.value.id}.keys() inherits set hash "
                        f"order (the dict was built with dict.fromkeys "
                        f"over a set) — sort the keys first")
            return None

        for node in _scope_statements(scope):
            targets = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                targets.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                targets.extend(gen.iter for gen in node.generators)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and not node.args and not node.keywords
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in tainted_sets):
                yield (node.lineno, node.col_offset,
                       f"{node.func.value.id}.pop() removes a hash-ordered "
                       f"arbitrary element from a set; pop from a sorted "
                       f"list (or use an explicit ordering) instead")
                continue
            for target in targets:
                message = is_unordered(target)
                if message is not None:
                    yield (target.lineno, target.col_offset, message)


_MUTABLE_CTORS = ("list", "dict", "set", "bytearray", "deque", "defaultdict")


class MutableDefaultRule(Rule):
    """MUT001: no mutable default arguments.

    A mutable default is shared across calls — state leaks between runs
    and, in this codebase, between simulations sharing a process.
    """

    id = "MUT001"
    title = "mutable default argument"

    def check(self, tree: ast.AST, layer: str) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CTORS
                )
                if mutable:
                    yield (default.lineno, default.col_offset,
                           "mutable default argument is shared across "
                           "calls; default to None and build inside")


class ExecPicklabilityRule(Rule):
    """PCK001: no lambdas in the ``exec`` layer (process-pool picklability).

    Jobs cross a ``ProcessPoolExecutor`` boundary; lambdas and closures
    are not picklable, so they fail only at runtime on the parallel path.
    Module-level functions plus dataclass payloads are the contract.
    """

    id = "PCK001"
    title = "lambda in exec layer (not picklable across the pool)"
    layers = frozenset({"exec"})

    def check(self, tree: ast.AST, layer: str) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Lambda):
                yield (node.lineno, node.col_offset,
                       "lambdas cannot be pickled into worker processes; "
                       "use a module-level function")


def _contains_float_arithmetic(node: ast.AST) -> Optional[ast.AST]:
    """First sub-expression making ``node`` float-valued, or None.

    Skips subtrees explicitly truncated back to int (``int(...)``,
    ``round(...)``, ``math.floor/ceil``).
    """
    truncators = {"int", "round"}
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Call):
            func = current.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in truncators or name in ("floor", "ceil"):
                continue  # result is an int again; don't descend
        if isinstance(current, ast.BinOp) and isinstance(current.op, ast.Div):
            return current
        if isinstance(current, ast.Constant) and isinstance(current.value, float):
            return current
        stack.extend(ast.iter_child_nodes(current))
    return None


class FloatCycleRule(Rule):
    """FLT001: no float arithmetic on cycle counts.

    Cycle time is integral by contract (the event heap keys on exact
    ints); a true division or float literal flowing into ``schedule()`` /
    ``schedule_at()`` — or ``/=`` on a cycle-named variable — introduces
    rounding that varies with optimisation level and platform.
    """

    id = "FLT001"
    title = "float arithmetic on a cycle count"
    layers = DETERMINISTIC_LAYERS

    def check(self, tree: ast.AST, layer: str) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None
                )
                if name in ("schedule", "schedule_at") and node.args:
                    culprit = _contains_float_arithmetic(node.args[0])
                    if culprit is not None:
                        yield (node.lineno, node.col_offset,
                               f"{name}() receives a float-valued cycle "
                               f"expression; truncate with int(...) at the "
                               f"call site and keep cycle math integral")
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                target = node.target
                name = (
                    target.id if isinstance(target, ast.Name)
                    else target.attr if isinstance(target, ast.Attribute)
                    else ""
                )
                if _CYCLE_NAME_RE.search(name):
                    yield (node.lineno, node.col_offset,
                           f"true division on cycle-valued {name!r}; use "
                           f"integer arithmetic (//) for cycle counts")


class MetricNameRule(Rule):
    """MET001: metric names must follow the ``repro.obs`` dotted scheme.

    Literal names passed to ``registry.counter/gauge/histogram`` (and
    ``merge_stats`` prefixes) must be lowercase dotted ``snake_case`` so
    :meth:`MetricsRegistry.snapshot` nests them predictably and exporters
    never see aliased spellings.
    """

    id = "MET001"
    title = "metric name violates the registry naming scheme"

    def check(self, tree: ast.AST, layer: str) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("counter", "gauge", "histogram",
                                 "merge_stats"):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if (isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                    and not _METRIC_NAME_RE.match(first.value)):
                yield (first.lineno, first.col_offset,
                       f"metric name {first.value!r} is not lowercase "
                       f"dotted snake_case (expected e.g. "
                       f"'iommu.buffer_pressure')")


#: The shipped rule set, in id order.
ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    ModuleRandomRule(),
    UnseededRandomRule(),
    SetIterationRule(),
    MutableDefaultRule(),
    ExecPicklabilityRule(),
    FloatCycleRule(),
    MetricNameRule(),
)


def rules_by_id() -> dict:
    return {rule.id: rule for rule in ALL_RULES}


def iter_rules(layer: str, rules: Optional[Iterable[Rule]] = None) -> Iterator[Rule]:
    for rule in (rules if rules is not None else ALL_RULES):
        if rule.applies_to(layer):
            yield rule
