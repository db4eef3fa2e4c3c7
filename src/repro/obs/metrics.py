"""Hierarchical metrics registry: counters, gauges, and histograms.

Components grab metric handles once (usually at construction) and update
them on the hot path; a disabled registry hands out a shared null metric
whose update methods are no-ops, so instrumentation costs one attribute
load when observability is off.

Names are dotted paths (``iommu.latency.ptw``, ``gpm3.rtt``);
:meth:`MetricsRegistry.snapshot` nests them back into a dictionary tree so
experiment harnesses and exporters get structure for free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ObservabilityError


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_value(self) -> int:
        return self.value


class Gauge:
    """A last-value metric with an optional sampled (cycle, value) series."""

    __slots__ = ("name", "value", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self.times: List[int] = []
        self.values: List[float] = []

    def set(self, value: float) -> None:
        self.value = value

    def sample(self, time: int, value: float) -> None:
        """Record a timestamped sample (the wafer sampler's gauge path)."""
        self.value = value
        self.times.append(time)
        self.values.append(value)

    def points(self) -> List[Tuple[int, float]]:
        return list(zip(self.times, self.values))

    def to_value(self) -> Dict[str, object]:
        out: Dict[str, object] = {"value": self.value}
        if self.times:
            out["series"] = self.points()
        return out


class Histogram:
    """Exact-value distribution with lazy summary statistics.

    Runs in this repository are scaled (tens of thousands of samples at
    most), so storing exact values keeps percentiles honest without
    bucketing error; swap in a bucketed sketch if run sizes ever explode.
    """

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if self._sorted and self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    def mean(self) -> float:
        return self.total / self.count if self._values else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile; 0 when empty."""
        if not self._values:
            return 0.0
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = max(0, min(len(self._values) - 1,
                          round(pct / 100 * (len(self._values) - 1))))
        return self._values[rank]

    def to_value(self) -> Dict[str, float]:
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean(),
            "min": min(self._values),
            "max": max(self._values),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class NullMetric:
    """Shared do-nothing stand-in handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def sample(self, time: int, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def to_value(self) -> None:  # pragma: no cover - never registered
        return None


NULL_METRIC = NullMetric()

Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Create-or-get registry of named metrics.

    ``counter``/``gauge``/``histogram`` are idempotent for a given name but
    raise :class:`ObservabilityError` if the same name is requested as two
    different kinds — silent aliasing is how accounting bugs hide.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # Handles
    # ------------------------------------------------------------------
    def _get(self, name: str, kind: type) -> Metric:
        if not self.enabled:
            return NULL_METRIC
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise ObservabilityError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str) -> Optional[Metric]:
        """Look up an existing metric without creating it."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Bulk ingestion
    # ------------------------------------------------------------------
    def merge_stats(self, prefix: str, stats: Dict[str, int]) -> None:
        """Fold a component's plain ``stats`` dict in as counters."""
        if not self.enabled:
            return
        for key in sorted(stats):
            self.counter(f"{prefix}.{key}").inc(stats[key])

    def merge_counters(
        self, counters: Dict[str, int], prefix: str = ""
    ) -> None:
        """Fold another registry's integer counters into this one.

        This is how worker-process metrics come home after a parallel
        sweep: each worker exports ``{name: int}`` (the counter slice of
        :meth:`flat`), and the parent sums them here — counters are the
        only metric kind that merges losslessly across processes, which
        is why gauges and histograms never ride along.  ``prefix``
        namespaces the merged names (e.g. ``"workers."``) so sweep-wide
        totals can't collide with the parent's own live metrics.
        """
        if not self.enabled:
            return
        for name in sorted(counters):
            self.counter(f"{prefix}{name}").inc(counters[name])

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def flat(self) -> Dict[str, object]:
        """``{dotted-name: exported value}`` in sorted name order."""
        return {
            name: self._metrics[name].to_value()
            for name in sorted(self._metrics)
        }

    def snapshot(self) -> Dict[str, object]:
        """Metrics nested into a tree along the dots in their names.

        A leaf whose name is also an interior node (``a.b`` next to
        ``a.b.c``) lands under the ``""`` key of that node, so no value is
        ever silently dropped.
        """
        tree: Dict[str, object] = {}
        for name, value in self.flat().items():
            node = tree
            parts = name.split(".")
            for part in parts[:-1]:
                child = node.get(part)
                if not isinstance(child, dict):
                    child = {} if child is None else {"": child}
                    node[part] = child
                node = child
            leaf = parts[-1]
            if isinstance(node.get(leaf), dict):
                node[leaf][""] = value
            else:
                node[leaf] = value
        return tree

    def gauges_matching(self, suffix: str) -> List[Gauge]:
        """All gauges whose dotted name ends with ``suffix`` (sorted)."""
        return [
            metric
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Gauge) and name.endswith(suffix)
        ]
