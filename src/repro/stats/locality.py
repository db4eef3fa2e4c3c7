"""Spatial-locality analysis (Observation O4, Figure 8).

Measures the virtual-page distance between each translation request and the
one immediately following it in the request stream.  The paper reports the
fraction of next requests that land within 1, 2, or 4 pages — the signal
that motivates proactive page-entry delivery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: Figure 8 buckets: within 1, 2, 4, 8, 16 pages, then "far".
LOCALITY_BOUNDARIES = [1, 2, 4, 8, 16]


#: How many recent requests each new request is compared against.  GPU
#: kernels interleave accesses to several buffers (input/output/tables),
#: so "the next nearby request" is within a small window, not necessarily
#: the immediately preceding one.
LOCALITY_WINDOW = 4


class SpatialLocalityAnalyzer:
    """Tracks the min page distance to recent requests of the same stream.

    Distances are measured per ``stream_id`` (per requesting GPM at the
    IOMMU) against a short window of that stream's recent VPNs: the
    locality a sequential prefetcher can exploit is between a requester's
    nearby pages, and measuring raw interleaved arrival order would dilute
    it with cross-GPM and cross-buffer noise.
    """

    def __init__(
        self,
        boundaries: Sequence[int] = LOCALITY_BOUNDARIES,
        window: int = LOCALITY_WINDOW,
    ) -> None:
        self.boundaries = list(boundaries)
        self.window = window
        self.counts: Dict[int, int] = {bound: 0 for bound in self.boundaries}
        self.far = 0
        self.total_pairs = 0
        self._recent: Dict[int, List[int]] = {}

    def record(self, vpn: int, stream_id: int = 0) -> None:
        recent = self._recent.setdefault(stream_id, [])
        if recent:
            distance = min(abs(vpn - previous) for previous in recent)
            self.total_pairs += 1
            for bound in self.boundaries:
                if distance <= bound:
                    self.counts[bound] += 1
                    break
            else:
                self.far += 1
        recent.append(vpn)
        if len(recent) > self.window:
            del recent[0]

    def summary(self) -> Dict[str, object]:
        """``[bound, pairs]`` per bucket, the far pairs, and the total."""
        return {
            "counts": [list(item) for item in self.counts.items()],
            "far": self.far,
            "total_pairs": self.total_pairs,
        }


def fraction_within(summary: Dict[str, object], pages: int) -> float:
    """Fraction of consecutive pairs within ``pages`` pages (cumulative)."""
    if not summary["total_pairs"]:
        return 0.0
    within = sum(count for bound, count in summary["counts"] if bound <= pages)
    return within / summary["total_pairs"]
