"""Mesh topology: tiles, the centre CPU, rings, and quadrants.

A wafer is a ``width x height`` grid of tiles.  One tile hosts the CPU (and
its IOMMU); every other tile is a GPM.  Following the paper we place the CPU
at the grid centre, and define *concentric rings* by Chebyshev distance from
the CPU tile — ring 1 is the 8 surrounding tiles, ring 2 the next 16, etc.
Quadrants split each ring into four arcs for HDPAT's clustering (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError

Coordinate = Tuple[int, int]


@dataclass(frozen=True)
class Tile:
    """One mesh tile: a grid coordinate plus its role."""

    x: int
    y: int
    tile_id: int
    is_cpu: bool = False

    @property
    def coordinate(self) -> Coordinate:
        return (self.x, self.y)


class MeshTopology:
    """A rectangular mesh with one CPU tile at (or nearest to) the centre."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1 or width * height < 2:
            raise ConfigurationError(
                f"mesh needs at least 2 tiles, got {width}x{height}"
            )
        self.width = width
        self.height = height
        self.cpu_coordinate: Coordinate = (width // 2, height // 2)
        self.tiles: List[Tile] = []
        self._by_coordinate: Dict[Coordinate, Tile] = {}
        tile_id = 0
        for y in range(height):
            for x in range(width):
                is_cpu = (x, y) == self.cpu_coordinate
                tile = Tile(x, y, tile_id, is_cpu)
                self.tiles.append(tile)
                self._by_coordinate[(x, y)] = tile
                tile_id += 1
        self.gpm_tiles: List[Tile] = [t for t in self.tiles if not t.is_cpu]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def tile_at(self, x: int, y: int) -> Tile:
        try:
            return self._by_coordinate[(x, y)]
        except KeyError:
            raise ConfigurationError(
                f"({x},{y}) outside {self.width}x{self.height} mesh"
            ) from None

    @property
    def num_gpms(self) -> int:
        return len(self.gpm_tiles)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    @staticmethod
    def manhattan(a: Coordinate, b: Coordinate) -> int:
        """Hop count of an XY route between two tiles."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def chebyshev_from_cpu(self, coordinate: Coordinate) -> int:
        """Ring index: Chebyshev distance from the CPU tile."""
        cx, cy = self.cpu_coordinate
        return max(abs(coordinate[0] - cx), abs(coordinate[1] - cy))

    def hops_to_cpu(self, coordinate: Coordinate) -> int:
        return self.manhattan(coordinate, self.cpu_coordinate)

    # ------------------------------------------------------------------
    # Rings and quadrants (the substrate for concentric caching)
    # ------------------------------------------------------------------
    def ring_members(self, ring: int) -> List[Tile]:
        """GPM tiles at Chebyshev distance ``ring`` from the CPU, ordered
        clockwise starting from the top-left corner of the ring.

        A stable, geometry-derived ordering is required so that clustering
        indices (Eq. 1-2) are identical on every GPM without communication.
        """
        if ring <= 0:
            raise ConfigurationError(f"ring index must be >= 1, got {ring}")
        members = [
            tile
            for tile in self.gpm_tiles
            if self.chebyshev_from_cpu(tile.coordinate) == ring
        ]
        cx, cy = self.cpu_coordinate
        members.sort(key=lambda t: _clockwise_key(t.x - cx, t.y - cy))
        return members

    def max_ring(self) -> int:
        return max(
            self.chebyshev_from_cpu(tile.coordinate) for tile in self.gpm_tiles
        )

    def complete_rings(self) -> List[int]:
        """Rings fully populated with 8*r tiles (incomplete border rings of
        non-square meshes are excluded from caching duty)."""
        rings = []
        for ring in range(1, self.max_ring() + 1):
            if len(self.ring_members(ring)) == 8 * ring:
                rings.append(ring)
        return rings

    def quadrant_of(self, coordinate: Coordinate) -> int:
        """Quadrant index 0-3 around the CPU (NE=0, SE=1, SW=2, NW=3).

        Tiles on an axis are assigned to the quadrant clockwise of the axis,
        which keeps quadrant sizes balanced on odd meshes.
        """
        dx = coordinate[0] - self.cpu_coordinate[0]
        dy = coordinate[1] - self.cpu_coordinate[1]
        if dx >= 0 and dy < 0:
            return 0
        if dx > 0 and dy >= 0:
            return 1
        if dx <= 0 and dy > 0:
            return 2
        return 3

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MeshTopology({self.width}x{self.height}, "
            f"cpu={self.cpu_coordinate}, gpms={self.num_gpms})"
        )


def _clockwise_key(dx: int, dy: int) -> Tuple[int, int, int]:
    """Sort key producing a clockwise walk around the ring.

    Sides are ordered: top row (left→right), right column (top→bottom),
    bottom row (right→left), left column (bottom→top).  ``dy`` grows
    downward (row-major grids), so the top row has the most negative dy.
    """
    ring = max(abs(dx), abs(dy))
    if dy == -ring and dx < ring:  # top side
        return (0, dx, 0)
    if dx == ring:  # right side
        return (1, dy, 0)
    if dy == ring:  # bottom side
        return (2, -dx, 0)
    return (3, -dy, 0)  # left side
