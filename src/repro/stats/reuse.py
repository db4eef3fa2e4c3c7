"""Translation reuse analysis (Observation O3, Figures 6 and 7).

Two analyzers over the stream of VPNs that reach the IOMMU:

* :class:`TranslationCountAnalyzer` — how many times each virtual page is
  translated (Figure 6's distribution of translation counts).
* :class:`ReuseDistanceAnalyzer` — the number of intervening requests
  between repeated translations of the same page (Figure 7).

Each analyzer records inside the IOMMU and hands the run result a JSON
``summary()``; the module-level readers derive the figures' numbers from
that summary, so a result revived from the disk cache reads the same.
"""

from __future__ import annotations

from typing import Dict, List

from repro.stats.histogram import BucketHistogram, Histogram

#: Paper-style reuse-distance buckets: small distances (coalescible in one
#: walk) up to hundreds of thousands (beyond any cache).
REUSE_DISTANCE_BOUNDARIES = [10, 100, 1_000, 10_000, 100_000]


class TranslationCountAnalyzer:
    """Counts IOMMU translations per VPN."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self.total_requests = 0

    def record(self, vpn: int) -> None:
        self._counts[vpn] = self._counts.get(vpn, 0) + 1
        self.total_requests += 1

    def histogram(self) -> Histogram:
        """Histogram keyed on per-page translation count."""
        histogram = Histogram()
        for count in self._counts.values():
            histogram.add(count)
        return histogram

    def count_of(self, vpn: int) -> int:
        return self._counts.get(vpn, 0)

    def summary(self) -> Dict[str, object]:
        """Total requests plus ``[translations, pages]`` pairs, ascending."""
        return {
            "total_requests": self.total_requests,
            "histogram": [list(item) for item in self.histogram().items()],
        }


def unique_pages(summary: Dict[str, object]) -> int:
    return sum(pages for _count, pages in summary["histogram"])


def fraction_single_translation(summary: Dict[str, object]) -> float:
    """Fraction of pages translated exactly once (AES/RELU-like)."""
    pages = unique_pages(summary)
    singles = sum(n for count, n in summary["histogram"] if count == 1)
    return singles / pages if pages else 0.0


def mean_translations_per_page(summary: Dict[str, object]) -> float:
    pages = unique_pages(summary)
    return summary["total_requests"] / pages if pages else 0.0


class ReuseDistanceAnalyzer:
    """Request-count distance between successive translations of a VPN.

    Distance is measured as the number of other requests observed between
    two requests for the same page ("access counts between repeated address
    translation requests", Figure 7).
    """

    def __init__(self) -> None:
        self._last_seen: Dict[int, int] = {}
        self._clock = 0
        self.histogram = BucketHistogram(REUSE_DISTANCE_BOUNDARIES)
        self.max_distance = 0
        self.min_distance: int = -1

    def record(self, vpn: int) -> None:
        previous = self._last_seen.get(vpn)
        if previous is not None:
            distance = self._clock - previous - 1
            self.histogram.add(distance)
            if distance > self.max_distance:
                self.max_distance = distance
            if self.min_distance < 0 or distance < self.min_distance:
                self.min_distance = distance
        self._last_seen[vpn] = self._clock
        self._clock += 1

    def summary(self) -> Dict[str, object]:
        """Counts per :data:`REUSE_DISTANCE_BOUNDARIES` bucket, plus the
        extreme distances (``min`` is -1 when nothing repeated)."""
        return {
            "counts": list(self.histogram.counts),
            "max": self.max_distance,
            "min": self.min_distance,
        }


def repeated_requests(summary: Dict[str, object]) -> int:
    return sum(summary["counts"])


def reuse_fractions(summary: Dict[str, object]) -> List[float]:
    """Per-bucket fractions of the repeated requests."""
    total = repeated_requests(summary)
    if not total:
        return [0.0] * len(summary["counts"])
    return [count / total for count in summary["counts"]]


def fraction_short(summary: Dict[str, object], boundary: int = 10) -> float:
    """Fraction of reuses closer than ``boundary`` requests apart — these
    are the ones PW-queue coalescing and redirection can catch."""
    total = repeated_requests(summary)
    if not total:
        return 0.0
    short = sum(
        count
        for bound, count in zip(REUSE_DISTANCE_BOUNDARIES, summary["counts"])
        if bound <= boundary
    )
    return short / total
