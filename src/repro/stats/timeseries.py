"""Time-series sampling for buffer-pressure style figures (Figs 4 and 13)."""

from __future__ import annotations

from typing import Callable, List, Tuple


class TimeSeries:
    """Sampled (cycle, value) series driven by explicit ``sample`` calls."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[int] = []
        self.values: List[float] = []

    def sample(self, time: int, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def points(self) -> List[Tuple[int, float]]:
        return list(zip(self.times, self.values))

    def __len__(self) -> int:
        return len(self.times)


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

    def series(self) -> List[Tuple[int, int]]:
        return [
            (index * self.window_cycles, count)
            for index, count in enumerate(self.windows)
        ]


def normalized_shape(windows: List[int]) -> List[float]:
    """Window counts normalised to their peak — used to compare shapes
    across problem sizes independently of absolute request volume."""
    peak = max(windows) if windows else 0
    if not peak:
        return [0.0] * len(windows)
    return [count / peak for count in windows]


class PeriodicSampler:
    """Schedules itself on a simulator to sample a probe every N cycles."""

    def __init__(
        self,
        sim,
        probe: Callable[[], float],
        period: int,
        series: TimeSeries,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.probe = probe
        self.period = period
        self.series = series
        self.enabled = True
        self.sim.schedule(period, self._tick)

    def stop(self) -> None:
        self.enabled = False

    def _tick(self) -> None:
        if not self.enabled:
            return
        self.series.sample(self.sim.now, self.probe())
        if self.sim.pending_events:
            self.sim.schedule(self.period, self._tick)
