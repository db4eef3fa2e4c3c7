"""Latency breakdown accumulator (Figure 3).

The paper decomposes IOMMU translation latency into pre-queue latency,
PTW queueing delay, and PTW (walk) latency.  :class:`LatencyBreakdown`
accumulates named phases per request and reports means and percentages.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


class LatencyBreakdown:
    """Accumulates per-request phase latencies under fixed phase names."""

    def __init__(self, phases: Sequence[str]) -> None:
        if not phases:
            raise ValueError("at least one phase name is required")
        self.phases = list(phases)
        self._totals: Dict[str, int] = {phase: 0 for phase in self.phases}
        self.requests = 0

    def record(self, **phase_cycles: int) -> None:
        """Record one request's phase latencies, e.g.
        ``record(pre_queue=120, ptw_queue=900, ptw=500)``."""
        unknown = set(phase_cycles) - set(self.phases)
        if unknown:
            raise KeyError(f"unknown phases: {sorted(unknown)}")
        for phase, cycles in phase_cycles.items():
            if cycles < 0:
                raise ValueError(f"negative latency for {phase}: {cycles}")
            self._totals[phase] += cycles
        self.requests += 1

    def mean(self, phase: str) -> float:
        return self._totals[phase] / self.requests if self.requests else 0.0

    def means(self) -> Dict[str, float]:
        return {phase: self.mean(phase) for phase in self.phases}

    def percentages(self) -> Dict[str, float]:
        """Each phase's share of the summed mean latency, in percent."""
        grand_total = sum(self._totals.values())
        if not grand_total:
            return {phase: 0.0 for phase in self.phases}
        return {
            phase: 100.0 * self._totals[phase] / grand_total
            for phase in self.phases
        }

    def dominant_phase(self) -> str:
        return max(self.phases, key=lambda phase: self._totals[phase])

    def rows(self) -> List[Dict[str, float]]:
        """Table rows: phase, mean cycles, percent — ready for printing."""
        percentages = self.percentages()
        return [
            {"phase": phase, "mean_cycles": self.mean(phase), "percent": percentages[phase]}
            for phase in self.phases
        ]
