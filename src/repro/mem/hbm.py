"""HBM stack timing model.

Each GPM owns one HBM stack (Table I: 8 GB, 1.23 TB/s).  The model charges a
fixed access latency plus a bandwidth-derived serialisation term with a
busy-until clock, mirroring the link model: detailed DRAM state (banks,
rows) is irrelevant to the translation study, but the throughput ceiling is
kept so memory-bound phases behave sensibly.
"""

from __future__ import annotations

from repro.units import bytes_per_cycle, serialization_cycles


class HBMModel:
    """One HBM stack with latency + bandwidth accounting."""

    def __init__(
        self,
        bandwidth_bytes_per_sec: float = 1.23e12,
        access_latency: int = 120,
    ) -> None:
        self.bandwidth_per_cycle = bytes_per_cycle(bandwidth_bytes_per_sec)
        self.access_latency = access_latency
        #: Serialisation of a 64-byte line, the size every access uses.
        self._line_serialization = serialization_cycles(64, self.bandwidth_per_cycle)
        self.busy_until = 0
        self.bytes_served = 0
        self.accesses = 0

    def access(self, now: int, size_bytes: int = 64) -> int:
        """Account one access starting at ``now``; returns completion time."""
        start = max(now, self.busy_until)
        if size_bytes == 64:
            serialization = self._line_serialization
        else:
            serialization = serialization_cycles(size_bytes, self.bandwidth_per_cycle)
        self.busy_until = start + serialization
        self.bytes_served += size_bytes
        self.accesses += 1
        return start + self.access_latency

    def utilization(self, now: int) -> float:
        if now <= 0:
            return 0.0
        cycles_needed = self.bytes_served / self.bandwidth_per_cycle
        return min(1.0, cycles_needed / now)
