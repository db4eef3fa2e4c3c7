"""Windowed event counts for the request-shape figure (Fig 13)."""

from __future__ import annotations

from typing import List


class WindowedCounter:
    """Counts events aggregated into fixed-width time windows.

    Figure 13 aggregates IOMMU-served requests into 100 000-cycle windows;
    this structure reproduces that bucketing online.
    """

    def __init__(self, window_cycles: int) -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.window_cycles = window_cycles
        self.windows: List[int] = []

    def record(self, time: int, amount: int = 1) -> None:
        index = time // self.window_cycles
        while len(self.windows) <= index:
            self.windows.append(0)
        self.windows[index] += amount


def normalized_shape(windows: List[int]) -> List[float]:
    """Window counts normalised to their peak — used to compare shapes
    across problem sizes independently of absolute request volume."""
    peak = max(windows) if windows else 0
    if not peak:
        return [0.0] * len(windows)
    return [count / peak for count in windows]

