"""Statistics collection and trace analysis.

Plain counters live on :class:`repro.sim.Component`; this package adds the
structures the paper's characterisation figures need: histograms (Figs 6-8),
windowed counters (Fig 13), latency breakdowns (Fig 3), and the reuse
distance / spatial-locality analyzers behind observations O3 and O4.
"""

from repro.stats.histogram import BucketHistogram, Histogram
from repro.stats.latency import LatencyBreakdown
from repro.stats.locality import SpatialLocalityAnalyzer
from repro.stats.reuse import ReuseDistanceAnalyzer, TranslationCountAnalyzer
from repro.stats.timeseries import WindowedCounter

__all__ = [
    "BucketHistogram",
    "Histogram",
    "LatencyBreakdown",
    "ReuseDistanceAnalyzer",
    "SpatialLocalityAnalyzer",
    "TranslationCountAnalyzer",
    "WindowedCounter",
]
