"""Valkyrie (PACT'20) comparison model.

Valkyrie leverages inter-TLB locality: on a local miss, a GPU probes a
peer's L2 TLB before falling back to the slow path.  In the wafer-scale
setting we model one probe at the nearest neighbouring GPM's L2 TLB (one
mesh hop); a miss continues to the IOMMU.  No pushes, placement, or
redirection — the gain comes purely from neighbours having translated the
same pages recently.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.policy import TranslationPolicy
from repro.core.request import ServedBy, TranslationRequest
from repro.mem.page import PageTableEntry
from repro.noc.messages import MessageKind

Coordinate = Tuple[int, int]


class ValkyriePolicy(TranslationPolicy):
    """Probe the nearest neighbour's L2 TLB, then the IOMMU."""

    name = "valkyrie"

    def bind(self, wafer) -> None:
        super().bind(wafer)
        topology = wafer.topology
        self._neighbor_of: Dict[int, int] = {}
        for gpm in wafer.gpms:
            nearest = min(
                (t for t in topology.gpm_tiles if t.coordinate != gpm.coordinate),
                key=lambda t: (
                    topology.manhattan(gpm.coordinate, t.coordinate),
                    t.tile_id,
                ),
            )
            self._neighbor_of[gpm.gpm_id] = wafer.gpm_id_at(nearest.coordinate)

    def start_remote(self, gpm, pending) -> None:
        request = self.make_request(gpm, pending)
        neighbor = self.coord_of_gpm(self._neighbor_of[gpm.gpm_id])
        self.wafer.network.send(
            MessageKind.PEER_PROBE, gpm.coordinate, neighbor, request
        )

    def on_peer_probe(self, gpm, request: TranslationRequest) -> None:
        entry: Optional[PageTableEntry] = gpm.hierarchy.l2.lookup(request.vpn)
        latency = gpm.config.l2_tlb.latency

        def _answer() -> None:
            if entry is not None:
                gpm.bump("valkyrie_l2_hits")
                self.respond(gpm, request, entry, ServedBy.PEER)
            else:
                self.send_to_iommu(gpm.coordinate, request)

        gpm.sim.schedule(latency, _answer)
