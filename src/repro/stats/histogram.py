"""Histogram structures used by the characterisation experiments."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


class Histogram:
    """Exact histogram over integer keys (e.g. translation counts per VPN)."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self.total = 0

    def add(self, key: int, amount: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount
        self.total += amount

    def count(self, key: int) -> int:
        return self._counts.get(key, 0)

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self._counts.items())


class BucketHistogram:
    """Histogram over half-open ranges ``[b_i, b_{i+1})`` plus overflow.

    Used for reuse-distance and address-distance distributions where the
    paper reports bucketed fractions (within 1 / 2 / 4 / ... pages).
    """

    def __init__(self, boundaries: Sequence[int]) -> None:
        if list(boundaries) != sorted(set(boundaries)):
            raise ValueError("boundaries must be strictly increasing")
        if not boundaries:
            raise ValueError("at least one boundary is required")
        self.boundaries = list(boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.total = 0

    def add(self, value: int, amount: int = 1) -> None:
        self.counts[self._bucket_of(value)] += amount
        self.total += amount

    def _bucket_of(self, value: int) -> int:
        for index, bound in enumerate(self.boundaries):
            if value < bound:
                return index
        return len(self.boundaries)

    def labels(self) -> List[str]:
        labels = []
        low = 0
        for bound in self.boundaries:
            labels.append(f"[{low},{bound})" if bound - low > 1 else f"{low}")
            low = bound
        labels.append(f">={low}")
        return labels
