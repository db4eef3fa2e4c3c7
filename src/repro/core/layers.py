"""Concentric caching layers (§IV-C).

GPMs are organised into concentric rings by Chebyshev distance from the
centre CPU tile.  The ``C`` innermost *complete* rings serve as translation
caching layers: translation requests try one auxiliary GPM per layer before
(or concurrently with) the IOMMU.  The default C=2 keeps the caching layers
"one step away from the border" on the 7x7 wafer, maximising caching GPMs
without wasting border tiles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.noc.topology import MeshTopology, Tile

Coordinate = Tuple[int, int]


class ConcentricLayout:
    """The ring structure HDPAT's caching and clustering are defined on."""

    def __init__(self, topology: MeshTopology, num_layers: int) -> None:
        self.topology = topology
        complete = topology.complete_rings()
        if num_layers > len(complete):
            raise ConfigurationError(
                f"requested C={num_layers} caching layers but the "
                f"{topology.width}x{topology.height} mesh has only "
                f"{len(complete)} complete rings"
            )
        #: Caching rings, innermost first (ring index == Chebyshev distance).
        self.caching_rings: List[int] = complete[:num_layers]
        self._members: Dict[int, List[Tile]] = {
            ring: topology.ring_members(ring) for ring in self.caching_rings
        }

    def members(self, ring: int) -> List[Tile]:
        try:
            return self._members[ring]
        except KeyError:
            raise ConfigurationError(f"ring {ring} is not a caching layer") from None

    def ring_of(self, coordinate: Coordinate) -> int:
        """Chebyshev ring of a tile (0 = the CPU itself)."""
        return self.topology.chebyshev_from_cpu(coordinate)

    def is_caching_gpm(self, coordinate: Coordinate) -> bool:
        return self.ring_of(coordinate) in self._members

    def caching_gpm_count(self) -> int:
        return sum(len(m) for m in self._members.values())

    def nearest_member(
        self, ring: int, from_coord: Coordinate, exclude: Optional[Coordinate] = None
    ) -> Tile:
        """The ring member closest (Manhattan) to ``from_coord``."""
        candidates = [
            tile for tile in self.members(ring) if tile.coordinate != exclude
        ]
        if not candidates:
            raise ConfigurationError(f"ring {ring} has no eligible members")
        return min(
            candidates,
            key=lambda t: (
                self.topology.manhattan(from_coord, t.coordinate),
                t.tile_id,
            ),
        )

    def probe_rings_for(self, requester: Coordinate) -> List[int]:
        """Caching rings a requester consults, innermost first.

        A GPM inside layer ``r`` starts at its own layer and moves inward
        (§IV-C), so rings strictly outside the requester are skipped; GPMs
        outside every caching layer consult all of them.
        """
        requester_ring = self.ring_of(requester)
        return [ring for ring in self.caching_rings if ring <= requester_ring]
