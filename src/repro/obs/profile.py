"""Profiling: host-loop wall-clock attribution and the run summary report.

The :class:`HostProfiler` answers "where does the *host Python* spend its
time", which is the lever for making the simulator itself faster.  The
engine feeds it from one place, its dispatch hooks
(:mod:`repro.sim.engine`): every event's wall time is booked to the
event's callback, the sanitizer hooks to a ``sanitize`` row, and each
:meth:`~repro.sim.engine.Simulator.run` wall to the run total.  Leaf
modules carry no timing code.  Wall-clock numbers never enter trace
payloads or digests — they live only in this side report.

:func:`summarize` renders one run's observability data as a text report:
top-k latency contributors, per-link utilisation, per-GPM queue depth
over time, and the wall-time attribution.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

_SPARK = " .:-=+*#%@"

#: Attribution rows that are not ``repro`` sub-packages.
SANITIZE_ROW = "sanitize"
ENGINE_ROW = "engine"


def layer_of(module: str) -> str:
    """The ``repro`` sub-package a module belongs to (``repro.gpm.gpm`` ->
    ``gpm``); ``other`` for code outside the package (tests, scripts)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


class HostProfiler:
    """Aggregates host wall-clock seconds per event callback.

    Callbacks are keyed by ``(module, qualname)``.  :meth:`layer_report`
    groups them by ``repro`` sub-package and adds the ``sanitize`` row and
    an ``engine`` row — the measured run wall minus every other row — so
    the rows partition the run wall by construction.

    A mesh delivery is the receiving handler bound to its payload, so
    its seconds land in the handler's layer (``GPM.handle_data_request``
    in ``gpm``, ``IOMMU.receive_request`` in ``iommu``), and a send's
    own cost in the row of the callback that sends.  A walker-pool
    completion is likewise the submitter's handler bound to its payload
    (``IOMMU._walk_done`` in ``iommu``, ``GPM._local_walk_done`` in
    ``gpm``).
    """

    __slots__ = ("seconds", "counts", "run_seconds", "sanitize_seconds",
                 "sanitize_calls")

    def __init__(self) -> None:
        self.seconds: Dict[Tuple[str, str], float] = {}
        self.counts: Dict[Tuple[str, str], int] = {}
        #: Summed wall of every timed run()/run_until() call.
        self.run_seconds = 0.0
        self.sanitize_seconds = 0.0
        self.sanitize_calls = 0

    def record(self, callback, elapsed: float) -> None:
        """Book one dispatched event's wall time to its callback."""
        key = (
            getattr(callback, "__module__", None) or "",
            getattr(callback, "__qualname__", None) or type(callback).__name__,
        )
        self.seconds[key] = self.seconds.get(key, 0.0) + elapsed
        self.counts[key] = self.counts.get(key, 0) + 1

    def add_sanitize(self, elapsed: float) -> None:
        self.sanitize_seconds += elapsed
        self.sanitize_calls += 1

    def add_run(self, elapsed: float) -> None:
        self.run_seconds += elapsed

    @property
    def total_seconds(self) -> float:
        """The run wall the layer rows partition."""
        return self.run_seconds

    def report(self, top_k: int = 20) -> List[Dict[str, object]]:
        """Per-callback rows sorted by total seconds, descending."""
        rows = [
            {
                "callback": qualname,
                "module": module,
                "layer": layer_of(module),
                "calls": self.counts[module, qualname],
                "seconds": seconds,
                "us_per_call": 1e6 * seconds / self.counts[module, qualname],
            }
            for (module, qualname), seconds in self.seconds.items()
        ]
        rows.sort(key=lambda row: (-row["seconds"], row["module"], row["callback"]))
        return rows[:top_k]

    def layer_report(self) -> List[Dict[str, object]]:
        """One row per layer, then ``sanitize`` (if any), then ``engine``.

        Each row carries ``phase`` / ``calls`` / ``seconds`` / ``share``
        (fraction of the run wall).  The engine row is clamped at zero
        for step()-driven simulations, which have no run wall.
        """
        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for (module, _), elapsed in self.seconds.items():
            layer = layer_of(module)
            seconds[layer] = seconds.get(layer, 0.0) + elapsed
            calls[layer] = calls.get(layer, 0) + self.counts[module, _]
        order = sorted(seconds, key=lambda layer: (-seconds[layer], layer))
        if self.sanitize_calls:
            order.append(SANITIZE_ROW)
            seconds[SANITIZE_ROW] = self.sanitize_seconds
            calls[SANITIZE_ROW] = self.sanitize_calls
        seconds[ENGINE_ROW] = max(0.0, self.run_seconds - sum(seconds.values()))
        calls[ENGINE_ROW] = 0
        order.append(ENGINE_ROW)
        wall = self.run_seconds
        return [
            {
                "phase": layer,
                "calls": calls[layer],
                "seconds": seconds[layer],
                "share": seconds[layer] / wall if wall > 0 else 0.0,
            }
            for layer in order
        ]

    def layer_seconds(self) -> Dict[str, float]:
        """``{row: seconds}`` of :meth:`layer_report`, for JSON export."""
        return {row["phase"]: row["seconds"] for row in self.layer_report()}


# ----------------------------------------------------------------------
# Run summary
# ----------------------------------------------------------------------
def _sparkline(values: List[float], width: int = 40) -> str:
    if not values:
        return ""
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(index * stride)] for index in range(width)]
    peak = max(values)
    if peak <= 0:
        return _SPARK[0] * len(values)
    scale = len(_SPARK) - 1
    return "".join(_SPARK[round(value / peak * scale)] for value in values)


def summarize(result, obs=None, top_k: int = 10) -> str:
    """Render a profiling report for one completed run.

    ``result`` is a :class:`repro.system.result.RunResult`; ``obs`` is the
    :class:`repro.obs.Observability` the run was executed with (optional —
    sections degrade gracefully when a data source was not enabled).
    """
    lines: List[str] = [
        f"== profile: {result.workload} on {result.config_description} ==",
        f"execution: {result.exec_cycles:,} cycles"
        + ("  [TRUNCATED]" if result.extras.get("truncated") else ""),
    ]

    lines += _latency_section(result, obs, top_k)
    lines += _link_section(result, top_k)
    lines += _queue_depth_section(obs)
    lines += _phase_section(result)
    lines += _host_profile_section(result, top_k)
    return "\n".join(lines)


def _latency_section(result, obs, top_k: int) -> List[str]:
    lines = ["-- top latency contributors (cycles) --"]
    tracer = getattr(obs, "tracer", None)
    if tracer is not None and tracer.enabled and tracer.events:
        spans = tracer.async_spans(name="remote_translation")
        if spans:
            by_server: Dict[str, List[int]] = {}
            for span in spans:
                served = span.end_args.get("served_by", "?")
                by_server.setdefault(served, []).append(span.duration)
            rows = sorted(
                by_server.items(),
                key=lambda item: -sum(item[1]),
            )
            lines.append(
                f"  remote translations: {len(spans)} spans traced"
            )
            for served, durations in rows[:top_k]:
                total = sum(durations)
                lines.append(
                    f"    served_by={served:<10} n={len(durations):<7} "
                    f"total={total:<12,} mean={total / len(durations):,.0f}"
                )
        totals: Dict[str, List[int]] = {}
        for event in tracer.events:
            if event.ph == "X":
                totals.setdefault(event.name, []).append(event.dur)
        for name, durs in sorted(totals.items(), key=lambda kv: -sum(kv[1]))[:top_k]:
            lines.append(
                f"    {name:<21} n={len(durs):<7} total={sum(durs):<12,} "
                f"mean={sum(durs) / len(durs):,.0f}"
            )
    if len(lines) == 1:
        # No trace: fall back to the IOMMU latency means every run records.
        for phase, mean in result.latency_breakdown.items():
            share = result.latency_percent.get(phase, 0.0)
            lines.append(f"    iommu.{phase:<15} mean={mean:>10,.0f}  ({share:.1f}%)")
    return lines


def _link_section(result, top_k: int) -> List[str]:
    links = result.extras.get("noc_links")
    if not links:
        return []
    lines = [f"-- hottest NoC links (of {len(links)}) --"]
    hottest = sorted(
        links, key=lambda row: (-row["busy_fraction"], row["src"], row["dst"])
    )[:top_k]
    for row in hottest:
        lines.append(
            f"    {str(row['src']):>8} -> {str(row['dst']):<8} "
            f"busy={row['busy_fraction']:6.2%}  bytes={row['bytes']:<12,} "
            f"wait={row['wait_cycles']:,} cyc"
        )
    return lines


def _queue_depth_section(obs) -> List[str]:
    registry = getattr(obs, "registry", None)
    if registry is None or not registry.enabled:
        return []
    gauges = registry.gauges_matching(".pending_depth")
    gauges += registry.gauges_matching("iommu.buffer_pressure")
    gauges = [gauge for gauge in gauges if gauge.values]
    if not gauges:
        return []
    lines = ["-- queue depth over time (sampled) --"]
    for gauge in gauges:
        peak = max(gauge.values)
        mean = sum(gauge.values) / len(gauge.values)
        lines.append(
            f"    {gauge.name:<28} peak={peak:<6g} mean={mean:<8.2f} "
            f"|{_sparkline(gauge.values)}|"
        )
    return lines


def _phase_section(result) -> List[str]:
    """Per-layer wall-time attribution ("where did the seconds go").

    Rendered from ``extras["phase_report"]`` (a profiled run); the rows
    are disjoint and sum to the run wall.
    """
    rows = result.extras.get("phase_report")
    if not rows:
        return []
    lines = ["-- wall-time attribution (per layer) --"]
    for row in rows:
        calls = f"calls={row['calls']:<9,}" if row["calls"] else " " * 15
        lines.append(
            f"    {row['phase']:<18} {calls} "
            f"{row['seconds']:8.3f}s  {row['share']:6.1%} of run wall"
        )
    return lines


def _host_profile_section(result, top_k: int) -> List[str]:
    rows = result.extras.get("host_profile")
    if not rows:
        return []
    lines = ["-- host Python loop (wall clock, per callback type) --"]
    for row in rows[:top_k]:
        lines.append(
            f"    {row['layer'] + ':' + row['callback']:<48} calls={row['calls']:<9,} "
            f"{row['seconds']:8.3f}s  {row['us_per_call']:7.1f}us/call"
        )
    return lines
