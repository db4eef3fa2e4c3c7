"""Interposer mesh network-on-chip.

Models the wafer's 2D mesh: XY dimension-order routing, 32-cycle link
traversal, 768 GB/s per-link bandwidth with busy-until contention, and
per-link traffic accounting (used for the paper's 0.82 % extra-traffic
claim).  The topology also exposes the geometric structure HDPAT's
concentric layers are defined on: Chebyshev rings around the centre CPU
tile and quadrant partitions.
"""

from repro.noc.messages import MessageKind
from repro.noc.network import MeshNetwork
from repro.noc.routing import xy_route
from repro.noc.topology import MeshTopology, Tile

__all__ = [
    "MeshNetwork",
    "MeshTopology",
    "MessageKind",
    "Tile",
    "xy_route",
]
