"""Remote translation requests and their resolution provenance."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

Coordinate = Tuple[int, int]

_request_ids = itertools.count()


class ServedBy(enum.Enum):
    """Which mechanism resolved a translation (Figure 16's categories plus
    the local outcomes).

    Members are singletons, so the C-level identity hash replaces Enum's
    Python-level name hash: every access looks one up in a dict.  The
    two frozensets below are only tested for membership, never iterated.
    """

    __hash__ = object.__hash__

    LOCAL_L1 = "local_l1"
    LOCAL_L2 = "local_l2"
    LOCAL_LLT = "local_llt"
    LOCAL_WALK = "local_walk"
    PEER = "peer"  # demand-cached entry found at an auxiliary GPM
    PROACTIVE = "proactive"  # prefetched entry found at an auxiliary GPM
    REDIRECT = "redirect"  # IOMMU redirection table sent us to a peer
    IOMMU = "iommu"  # full IOMMU page table walk (or PW-queue coalesce)

    @property
    def is_local(self) -> bool:
        return self in _LOCAL

    @property
    def is_distributed(self) -> bool:
        """Resolved by an HDPAT mechanism rather than an IOMMU walk."""
        return self in _DISTRIBUTED


_LOCAL = frozenset(
    {ServedBy.LOCAL_L1, ServedBy.LOCAL_L2, ServedBy.LOCAL_LLT, ServedBy.LOCAL_WALK}
)
_DISTRIBUTED = frozenset({ServedBy.PEER, ServedBy.PROACTIVE, ServedBy.REDIRECT})


@dataclass
class TranslationRequest:
    """One remote translation in flight.

    Created when a GPM's local hierarchy cannot resolve a VPN; threaded
    through peer probes, redirection, and the IOMMU.  The IOMMU-side
    timestamps capture the phases the latency-breakdown figure reports.
    """

    vpn: int
    requester_gpm: int
    requester_coord: Coordinate
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: Set when the IOMMU must not consult the redirection table again
    #: (a redirect already bounced: the auxiliary GPM had evicted the PTE).
    no_redirect: bool = False
    #: GPMs probed on the way (route/concentric schemes install the
    #: response at these, reproducing their duplication behaviour).
    probed_gpms: List[int] = field(default_factory=list)
    # -- IOMMU-side timestamps (Figure 3) --------------------------------
    iommu_arrival: Optional[int] = None
    pw_enqueue: Optional[int] = None

    def __hash__(self) -> int:
        return self.request_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TranslationRequest) and other.request_id == self.request_id
