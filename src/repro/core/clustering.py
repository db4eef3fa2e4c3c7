"""Quadrant clustering and rotation (§IV-D, §IV-E, Figure 11).

Within each caching ring, HDPAT stores each PTE exactly once.  The holder
is derived from the VPN alone, so any GPM can compute it without
communication:

    cluster   = VPN mod N_c                      (Eq. 1, N_c = 4 quadrants)
    local_id  = floor(VPN / N_c) mod N_g         (Eq. 2, N_g per-cluster)

Clusters are contiguous clockwise arcs of the ring (the quadrant-based
partition of Figure 11(a) — each arc of a ring of 8r members spans 2r
consecutive positions).  Alternate layers rotate their numbering origin by
180 degrees (Figure 11(b)) so that every requester, whatever its quadrant,
has at least one nearby holder among the layers.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.noc.topology import Tile

NUM_CLUSTERS = 4


class ClusterMap:
    """VPN -> holder GPM mapping for one caching ring."""

    def __init__(self, members: List[Tile], layer_index: int, rotate: bool = True) -> None:
        if len(members) % NUM_CLUSTERS:
            raise ValueError(
                f"ring size {len(members)} not divisible into "
                f"{NUM_CLUSTERS} clusters"
            )
        self.members = members
        self.num_members = len(members)
        self.gpms_per_cluster = self.num_members // NUM_CLUSTERS
        # 180-degree rotation on alternate layers (§IV-E).
        self.rotation_offset = (
            (layer_index % 2) * (self.num_members // 2) if rotate else 0
        )

    def position_of(self, vpn: int) -> int:
        """Ring position (index into the clockwise member list) for a VPN."""
        cluster = vpn % NUM_CLUSTERS
        local_id = (vpn // NUM_CLUSTERS) % self.gpms_per_cluster
        return (
            self.rotation_offset + cluster * self.gpms_per_cluster + local_id
        ) % self.num_members

    def holder_of(self, vpn: int) -> Tile:
        """The single GPM in this ring responsible for caching ``vpn``."""
        return self.members[self.position_of(vpn)]

    def cluster_of(self, vpn: int) -> int:
        return vpn % NUM_CLUSTERS

    def vpns_held_by(self, tile: Tile, vpn_range: Tuple[int, int]) -> List[int]:
        """All VPNs in ``[lo, hi)`` this tile is responsible for (testing
        and capacity-planning helper)."""
        lo, hi = vpn_range
        return [vpn for vpn in range(lo, hi) if self.holder_of(vpn) is tile]
