"""Run results: everything the experiment harnesses report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.request import ServedBy
from repro.units import cycles_to_ms


@dataclass
class RunResult:
    """Measurements from one benchmark execution on one configuration."""

    workload: str
    config_description: str
    exec_cycles: int
    per_gpm_finish: List[int]
    served_by: Dict[ServedBy, int]
    total_accesses: int
    # IOMMU-side
    iommu_requests: int
    iommu_walks: int
    iommu_coalesced: int
    iommu_redirects: int
    latency_breakdown: Dict[str, float]
    latency_percent: Dict[str, float]
    prefetch_pushed: int
    # Network-side
    total_link_bytes: int
    translation_link_bytes: int
    mean_hops: float
    # Requester-side
    mean_rtt: float
    remote_translations: int
    #: JSON values only: the disk cache stores them beside ``to_dict()``.
    extras: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def speedup_over(self, baseline: "RunResult") -> float:
        """Performance of this run normalised to ``baseline``."""
        if self.exec_cycles <= 0:
            raise ValueError("exec_cycles must be positive")
        return baseline.exec_cycles / self.exec_cycles

    @property
    def exec_ms(self) -> float:
        return cycles_to_ms(self.exec_cycles)

    def served(self, category: ServedBy) -> int:
        return self.served_by.get(category, 0)

    def remote_breakdown(self) -> Dict[str, float]:
        """Fractions of remote translations by resolver (Figure 16)."""
        peer = self.served(ServedBy.PEER)
        proactive = self.served(ServedBy.PROACTIVE)
        redirect = self.served(ServedBy.REDIRECT)
        iommu = self.served(ServedBy.IOMMU)
        total = peer + proactive + redirect + iommu
        if not total:
            return {"peer": 0.0, "redirect": 0.0, "proactive": 0.0, "iommu": 1.0}
        return {
            "peer": peer / total,
            "redirect": redirect / total,
            "proactive": proactive / total,
            "iommu": iommu / total,
        }

    def offload_fraction(self) -> float:
        """Fraction of remote translations NOT served by an IOMMU walk."""
        breakdown = self.remote_breakdown()
        return breakdown["peer"] + breakdown["redirect"] + breakdown["proactive"]

    def local_fraction(self) -> float:
        local = sum(
            count for served, count in self.served_by.items() if served.is_local
        )
        total = sum(self.served_by.values())
        return local / total if total else 0.0

    def prefetch_accuracy(self) -> float:
        """Prefetched PTEs that served a demand translation, over pushed.

        Clamped to 1.0 for the figures; :meth:`prefetch_accuracy_raw`
        exposes the unclamped ratio so accounting bugs (hits > pushes)
        stay visible — the runner warns when it exceeds 1.0.
        """
        if not self.prefetch_pushed:
            return 0.0
        return min(1.0, self.served(ServedBy.PROACTIVE) / self.prefetch_pushed)

    def prefetch_accuracy_raw(self) -> float:
        """Unclamped proactive-hits / pushed-PTEs ratio (may exceed 1.0)."""
        raw = self.extras.get("prefetch_accuracy_raw")
        if raw is not None:
            return raw
        if not self.prefetch_pushed:
            return 0.0
        return self.served(ServedBy.PROACTIVE) / self.prefetch_pushed

    @property
    def truncated(self) -> bool:
        """True when the run hit ``max_cycles`` and dropped pending events."""
        return bool(self.extras.get("truncated", False))

    def gpm_finish_ms(self) -> List[float]:
        return [cycles_to_ms(cycles) for cycles in self.per_gpm_finish]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output (JSON round-trip).

        ``ServedBy`` keys are revived from their string values, and the
        ``truncated`` / ``prefetch_accuracy_raw`` extras are restored so
        ``to_dict(from_dict(d)) == d`` exactly.  The other extras are not
        part of ``to_dict()``; the disk cache stores them beside it and
        puts them back (see ``repro.exec.diskcache``).
        """
        iommu = data["iommu"]
        network = data["network"]
        return cls(
            workload=data["workload"],
            config_description=data["config"],
            exec_cycles=data["exec_cycles"],
            per_gpm_finish=list(data["per_gpm_finish"]),
            served_by={
                ServedBy(value): count
                for value, count in data["served_by"].items()
            },
            total_accesses=data["total_accesses"],
            iommu_requests=iommu["requests"],
            iommu_walks=iommu["walks"],
            iommu_coalesced=iommu["coalesced"],
            iommu_redirects=iommu["redirects"],
            latency_breakdown=dict(iommu["latency_breakdown"]),
            latency_percent=dict(iommu["latency_percent"]),
            prefetch_pushed=iommu["prefetch_pushed"],
            total_link_bytes=network["total_link_bytes"],
            translation_link_bytes=network["translation_link_bytes"],
            mean_hops=network["mean_hops"],
            mean_rtt=data["mean_rtt"],
            remote_translations=data["remote_translations"],
            extras={
                "truncated": data["truncated"],
                "prefetch_accuracy_raw": iommu["prefetch_accuracy_raw"],
            },
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable summary (extras omitted)."""
        return {
            "workload": self.workload,
            "config": self.config_description,
            "exec_cycles": self.exec_cycles,
            "exec_ms": self.exec_ms,
            "total_accesses": self.total_accesses,
            "served_by": {
                served.value: count for served, count in self.served_by.items()
            },
            "local_fraction": self.local_fraction(),
            "remote_translations": self.remote_translations,
            "remote_breakdown": self.remote_breakdown(),
            "offload_fraction": self.offload_fraction(),
            "iommu": {
                "requests": self.iommu_requests,
                "walks": self.iommu_walks,
                "coalesced": self.iommu_coalesced,
                "redirects": self.iommu_redirects,
                "latency_breakdown": self.latency_breakdown,
                "latency_percent": self.latency_percent,
                "prefetch_pushed": self.prefetch_pushed,
                "prefetch_accuracy": self.prefetch_accuracy(),
                "prefetch_accuracy_raw": self.prefetch_accuracy_raw(),
            },
            "truncated": self.truncated,
            "network": {
                "total_link_bytes": self.total_link_bytes,
                "translation_link_bytes": self.translation_link_bytes,
                "mean_hops": self.mean_hops,
            },
            "mean_rtt": self.mean_rtt,
            "per_gpm_finish": list(self.per_gpm_finish),
        }
