"""IOMMU-side configuration (Table I, CPU side)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.config.gpm import TLBConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class IOMMUConfig:
    """The central IOMMU: walker pool, PW-queue, and HDPAT-side structures.

    ``pw_queue_capacity`` is the internal walker request queue; the PW-queue
    revisit mechanism (§IV-F) and Barre's coalescing both operate on it.
    Requests beyond it wait in the unbounded pre-queue in front of the
    walkers, whose occupancy Figure 4 plots.
    """

    num_walkers: int = 16
    walk_latency: int = 500
    pw_queue_capacity: int = 64
    redirection_entries: int = 1024
    #: Replace the redirection table with a same-area TLB (Fig. 19).
    iommu_tlb: Optional[TLBConfig] = None

    def __post_init__(self) -> None:
        if self.num_walkers <= 0:
            raise ConfigurationError("IOMMU needs at least one walker")
        if self.walk_latency < 0:
            raise ConfigurationError("walk latency cannot be negative")

    def idealized(self, walk_latency: int = None, num_walkers: int = None) -> "IOMMUConfig":
        """A copy with idealised parameters (Fig. 2 headroom study).

        Every other field is kept; a wider walker pool grows the PW-queue
        to hold at least one request per walker.
        """
        changes = {}
        if walk_latency is not None:
            changes["walk_latency"] = walk_latency
        if num_walkers is not None:
            changes["num_walkers"] = num_walkers
            changes["pw_queue_capacity"] = max(self.pw_queue_capacity, num_walkers)
        return replace(self, **changes)
