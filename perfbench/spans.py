"""Outside-in span tracer for the benchmark's traced mode.

The tracer never edits the program.  It replaces public methods of the
simulator's layers at class level with wrappers that open a span, call
the original, and close the span.  Scheduled callbacks are wrapped the
same way: ``Simulator.schedule`` / ``schedule_at`` (and the walker
queue's ``submit``) hand the engine a closure that runs the original
callback inside a span attributed to the layer of the callback's module.

Spans are kept in memory as four flat arrays (start, end, name id,
parent index) and written out once the run ends.  A span's *self time*
is its duration minus the durations of its direct children, so the self
times of all spans add up to the duration of the outermost spans: the
per-layer rows are disjoint by construction.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

#: Layers reported by the benchmark, keyed by the ``repro`` sub-package
#: whose code runs inside the span.  Anything else lands in ``other``.
LAYER_OF_PACKAGE = {
    "gpm": "gpm",
    "tlb": "tlb",
    "filters": "filters",
    "noc": "noc",
    "faults": "faults",
    "iommu": "iommu",
    "core": "core",
    "sim": "sim",
    "mem": "mem",
    "workloads": "workloads",
    "system": "system",
    "exec": "exec",
    "experiments": "experiments",
}
LAYERS = tuple(sorted(set(LAYER_OF_PACKAGE.values()))) + ("other",)


def layer_of_module(module: str) -> str:
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return LAYER_OF_PACKAGE.get(parts[1], "other")
    return "other"


class SpanTracer:
    """In-memory span store plus the class-level patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        #: Open span indices; the -1 sentinel is the parent of top-level
        #: spans.
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []
        self._callback_ids: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.name_layers.append(layer)
        return nid

    def wrap(self, fn: Callable, nid: int) -> Callable:
        """``fn`` wrapped so that every call is one span named ``nid``."""
        starts, ends = self.starts, self.ends
        name_ids, parents, stack = self.name_ids, self.parents, self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1])
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def span(self, name: str, layer: str):
        """Context manager recording one span (for the benchmark's own
        calls, e.g. the root span around ``run_benchmark``)."""
        tracer = self
        nid = self.name_id(name, layer)

        class _Span:
            def __enter__(self):
                self.idx = len(tracer.starts)
                tracer.parents.append(tracer._stack[-1])
                tracer.name_ids.append(nid)
                tracer.ends.append(0.0)
                tracer._stack.append(self.idx)
                tracer.starts.append(perf_counter())
                return self

            def __exit__(self, *exc):
                tracer.ends[self.idx] = perf_counter()
                tracer._stack.pop()
                return False

        return _Span()

    def wrap_callback(self, callback: Callable) -> Callable:
        """A scheduled callback, run inside a span of its module's layer."""
        module = getattr(callback, "__module__", None) or type(callback).__module__
        qualname = getattr(callback, "__qualname__", None) or type(callback).__name__
        key = (module, qualname)
        nid = self._callback_ids.get(key)
        if nid is None:
            nid = self.name_id(f"callback {module}.{qualname}", layer_of_module(module))
            self._callback_ids[key] = nid
        return self.wrap(callback, nid)

    # ------------------------------------------------------------------
    # Installing and removing the class-level patches
    # ------------------------------------------------------------------
    def patch_method(self, owner: type, attr: str, layer: str) -> None:
        original = owner.__dict__[attr]
        nid = self.name_id(f"{owner.__module__}.{owner.__qualname__}.{attr}", layer)
        wrapped = functools.wraps(original)(self.wrap(original, nid))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def patch_methods(self, owner: type, attrs: Iterable[str], layer: str) -> None:
        for attr in attrs:
            if attr in owner.__dict__:
                self.patch_method(owner, attr, layer)

    def patch_callback_arg(self, owner: type, attr: str, position: int) -> None:
        """Wrap the callback passed as positional argument ``position``
        (every call site in the program passes it positionally)."""
        original = owner.__dict__[attr]
        wrap_callback = self.wrap_callback

        @functools.wraps(original)
        def patched(*args):
            args = list(args)
            args[position] = wrap_callback(args[position])
            return original(*args)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def patch_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        nid = self.name_id(f"{module.__name__}.{attr}", layer)
        self._patches.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(self.wrap(original, nid)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
        }

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer (every layer in :data:`LAYERS`)."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        children = np.zeros_like(duration)
        nested = spans["parent"] >= 0
        np.add.at(children, spans["parent"][nested], duration[nested])
        own = duration - children
        layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        layer_of_name = np.array(
            [layer_index[layer] for layer in self.name_layers], dtype=np.int64
        )
        totals = np.bincount(
            layer_of_name[spans["name"]], weights=own, minlength=len(LAYERS)
        ) if len(own) else np.zeros(len(LAYERS))
        return {layer: float(totals[i]) for i, layer in enumerate(LAYERS)}

    def name_durations(self) -> Dict[str, float]:
        """Seconds spent inside spans of each name, children included."""
        spans = self.arrays()
        totals = np.bincount(
            spans["name"], weights=spans["end"] - spans["start"],
            minlength=len(self.names),
        )
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span (arrays plus the name table) to ``path`` (.npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.name_layers),
            **self.arrays(),
        )


def install_simulation_tracer(tracer: SpanTracer) -> None:
    """Patch the simulator's layer entry points and scheduled callbacks."""
    from repro.core import policy as policy_module
    from repro.core.baselines import registry as _baselines  # noqa: F401
    from repro.faults.state import FaultState
    from repro.filters.cuckoo import CuckooFilter
    from repro.gpm.gpm import GPM
    from repro.iommu.iommu import IOMMU
    from repro.mem.allocator import PageAllocator
    from repro.mem.hbm import HBMModel
    from repro.mem.page_table import GlobalPageTable, LocalPageTable, _PageTableBase
    from repro.noc.network import MeshNetwork
    from repro.sim.engine import Simulator
    from repro.sim.queueing import WalkerPool
    from repro.system import runner
    from repro.system.wafer import WaferScaleGPU
    from repro.tlb.hierarchy import TranslationHierarchy
    from repro.workloads.base import Workload

    # Every scheduled callback runs in a span of its module's layer.
    tracer.patch_callback_arg(Simulator, "schedule", 2)
    tracer.patch_callback_arg(Simulator, "schedule_at", 2)
    tracer.patch_callback_arg(WalkerPool, "submit", 2)
    tracer.patch_method(Simulator, "run", "sim")

    tracer.patch_methods(TranslationHierarchy, (
        "probe_local", "probe_remote", "fill_from_translation",
        "install_cached_remote", "complete_local_walk", "install_local_page",
    ), "tlb")
    tracer.patch_methods(CuckooFilter, ("contains", "insert", "delete"), "filters")
    tracer.patch_methods(MeshNetwork, ("send",), "noc")
    tracer.patch_methods(IOMMU, ("handle_message", "receive_request", "respond"), "iommu")
    tracer.patch_methods(GPM, ("handle_message",), "gpm")
    tracer.patch_methods(FaultState, ("route", "transient_verdict"), "faults")
    core_methods = (
        "start_remote", "retry_remote", "on_peer_probe", "on_redirect",
        "respond", "send_to_iommu",
    )
    pending, seen = [policy_module.TranslationPolicy], set()
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.add(cls)
            tracer.patch_methods(cls, core_methods, "core")
            pending.extend(cls.__subclasses__())
    for table in (_PageTableBase, LocalPageTable, GlobalPageTable):
        tracer.patch_methods(table, ("insert", "walk", "lookup", "contains", "walk_range"), "mem")
    tracer.patch_methods(PageAllocator, ("materialize",), "mem")
    tracer.patch_methods(HBMModel, ("access",), "mem")
    tracer.patch_methods(Workload, ("generate",), "workloads")
    tracer.patch_methods(WaferScaleGPU, ("__init__", "install_entries", "load_traces"), "system")
    tracer.patch_function(runner, "collect_result", "system")


def install_sweep_tracer(tracer: SpanTracer) -> None:
    """Patch the executor-side entry points the sweep's parent runs."""
    from repro.exec.diskcache import DiskResultCache
    from repro.exec.executor import SweepExecutor
    from repro.experiments.common import RunCache

    tracer.patch_methods(SweepExecutor, ("map", "lookup", "store", "run_inline"), "exec")
    tracer.patch_methods(DiskResultCache, ("load", "store"), "exec")
    tracer.patch_methods(RunCache, ("get", "warm"), "experiments")
