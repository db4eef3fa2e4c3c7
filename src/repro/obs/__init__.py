"""Observability for the HDPAT simulator: metrics, tracing, profiling.

One :class:`Observability` object accompanies one run.  It bundles

* a :class:`~repro.obs.metrics.MetricsRegistry` of hierarchical counters /
  gauges / histograms,
* a :class:`~repro.obs.trace.Tracer` recording translation lifecycles as
  structured, integer-cycle events (exportable to JSONL and Chrome
  trace-event format — see :mod:`repro.obs.export`),
* an optional :class:`~repro.obs.profile.HostProfiler` timing the host
  Python event loop per callback, with a per-layer view whose rows sum
  to the run wall.

Everything is disabled by default: components built against the shared
:data:`NULL_OBS` pay one ``is None`` check per instrumentation point and
record nothing.  Create a fresh ``Observability`` per run — registries and
tracers accumulate and are snapshotted into ``RunResult.extras``.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
)
from repro.obs.profile import HostProfiler, summarize
from repro.obs.trace import AsyncSpan, TraceEvent, Tracer
from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)

__all__ = [
    "AsyncSpan",
    "Counter",
    "Gauge",
    "Histogram",
    "HostProfiler",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_OBS",
    "Observability",
    "TraceEvent",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_json",
    "read_jsonl",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]

#: Cycle period of the run's sampler when no buffer-pressure period is set.
DEFAULT_SAMPLE_PERIOD = 2_000


class Observability:
    """Per-run bundle of registry + tracer + optional host profiler."""

    def __init__(
        self,
        metrics: bool = False,
        trace: bool = False,
        profile: bool = False,
    ) -> None:
        # Tracing implies metrics: the profiling report reads both.
        self.registry = MetricsRegistry(enabled=metrics or trace)
        self.tracer = Tracer(enabled=trace)
        self.profiler: Optional[HostProfiler] = HostProfiler() if profile else None

    @property
    def enabled(self) -> bool:
        """True when any collection (metrics, trace, profile) is on."""
        return (
            self.registry.enabled
            or self.tracer.enabled
            or self.profiler is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Observability(metrics={self.registry.enabled}, "
            f"trace={self.tracer.enabled}, "
            f"profile={self.profiler is not None})"
        )


#: Shared all-off instance used as the default by every component.  Never
#: enable collection on it — construct a fresh :class:`Observability`.
NULL_OBS = Observability()
