"""Remote-translation policies.

A policy decides what happens when a GPM's local hierarchy cannot resolve a
VPN: where probes go, who forwards to the IOMMU, and where the IOMMU pushes
completed translations.  One policy instance is shared by the whole wafer
(it is stateless per-request beyond the request object itself).

Implemented policies:

* :class:`BaselinePolicy` — naive centralized translation (everything at
  the IOMMU).
* :class:`RouteCachePolicy` — §IV-B: check every GPM along the XY route to
  the CPU; each of them caches the eventual response (high duplication).
* :class:`ConcentricPolicy` — §IV-C: one attempt per concentric layer,
  moving inward; any GPM may cache any PTE.
* :class:`DistributedPolicy` — §V-A's distributed-caching baseline: two
  symmetric groups, one probe at the nearest same-group peer.
* :class:`ClusterRotationPolicy` — §IV-D/E: one holder per layer computed
  from the VPN (quadrant clustering + 180-degree rotation), probed
  concurrently; the innermost holder forwards to the IOMMU on miss.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config.hdpat import HDPATConfig, PeerCachingScheme
from repro.core.clustering import ClusterMap
from repro.core.layers import ConcentricLayout
from repro.core.request import ServedBy, TranslationRequest
from repro.errors import ConfigurationError
from repro.mem.page import PageTableEntry
from repro.noc.messages import Message, MessageKind

Coordinate = Tuple[int, int]


class TranslationPolicy:
    """Base class: direct-to-IOMMU behaviour plus shared plumbing."""

    name = "baseline"
    #: Whether the IOMMU should install the response at every GPM the
    #: request probed on its way (route/concentric/distributed caching).
    install_at_probed = False
    #: Builder hook: override the IOMMU walk latency (used by Trans-FW).
    iommu_walk_latency_override: Optional[int] = None

    def __init__(self, hdpat: HDPATConfig) -> None:
        self.hdpat = hdpat
        self.wafer = None
        self._tracer = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, wafer) -> None:
        """Attach to a built wafer (topology, GPMs, IOMMU, network)."""
        self.wafer = wafer
        tracer = wafer.obs.tracer
        self._tracer = tracer if tracer.enabled else None

    def coord_of_gpm(self, gpm_id: int) -> Coordinate:
        return self.wafer.gpms[gpm_id].coordinate

    def gpm_alive(self, gpm_id: int) -> bool:
        """Whether a GPM survived the fault plan (always true without one)."""
        faults = self.wafer.faults
        return faults is None or faults.gpm_alive(gpm_id)

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------
    def start_remote(self, gpm, pending) -> None:
        """Default: send the request straight to the central IOMMU."""
        request = self.make_request(gpm, pending)
        self.send_to_iommu(gpm.coordinate, request)

    def retry_remote(self, gpm, pending) -> None:
        """Fault-path retry: a fresh request straight to the IOMMU.

        The retry bypasses peer probes and redirection (``no_redirect``) —
        the first attempt already exercised the fancy path and was lost or
        delayed past the timeout, so the retry takes the most dependable
        route available: the full IOMMU walk.
        """
        request = self.make_request(gpm, pending)
        request.no_redirect = True
        self.send_to_iommu(gpm.coordinate, request)

    def make_request(self, gpm, pending) -> TranslationRequest:
        request = TranslationRequest(
            vpn=pending.vpn,
            requester_gpm=gpm.gpm_id,
            requester_coord=gpm.coordinate,
            issued_at=gpm.sim.now,
        )
        if self._tracer is not None:
            # The request id keys the whole remote-translation span: every
            # NoC leg, peer probe, redirect, and IOMMU phase stitches onto
            # it, and the requester GPM closes it on completion.
            pending.trace_id = request.request_id
            self._tracer.async_begin(
                gpm.sim.now, "remote_translation", cat="translation",
                track=gpm.name, span_id=request.request_id,
                args={"vpn": pending.vpn, "gpm": gpm.gpm_id},
            )
        return request

    # ------------------------------------------------------------------
    # Peer side
    # ------------------------------------------------------------------
    def on_peer_probe(self, gpm, message: Message) -> None:  # pragma: no cover
        raise ConfigurationError(
            f"policy {self.name!r} does not expect peer probes"
        )

    def on_redirect(self, gpm, message: Message) -> None:
        """An IOMMU redirect arrived at an auxiliary GPM (§IV-F).

        If the PTE is still cached here, answer the requester directly;
        if it was evicted meanwhile, bounce the request back to the IOMMU
        flagged ``no_redirect`` so it takes the walk path.
        """
        request: TranslationRequest = message.payload
        self._trace_step(gpm, request, "redirect_probe")

        def _done(entry: Optional[PageTableEntry]) -> None:
            if entry is not None:
                self.respond(gpm, request, entry, ServedBy.REDIRECT)
            else:
                gpm.bump("redirect_bounces")
                request.no_redirect = True
                self._trace_step(gpm, request, "redirect_bounce")
                self.send_to_iommu(gpm.coordinate, request)

        gpm.serve_peer_probe(request.vpn, _done)

    # ------------------------------------------------------------------
    # IOMMU side
    # ------------------------------------------------------------------
    def push_targets(self, vpn: int) -> List[int]:
        """GPM ids that should receive pushed copies of this VPN's PTE
        (one per caching layer, innermost first); empty by default."""
        return []

    # ------------------------------------------------------------------
    # Messaging helpers
    # ------------------------------------------------------------------
    def _trace_step(self, gpm, request: TranslationRequest, name: str) -> None:
        """Record one async step of a remote-translation span at a GPM."""
        if self._tracer is not None:
            self._tracer.async_instant(
                gpm.sim.now, name, cat="translation", track=gpm.name,
                span_id=request.request_id, args={"gpm": gpm.gpm_id},
            )

    def send_to_iommu(self, from_coord: Coordinate, request: TranslationRequest) -> None:
        self.wafer.network.send(
            Message(
                MessageKind.TRANSLATION_REQ,
                src=from_coord,
                dst=self.wafer.iommu.coordinate,
                payload=request,
            )
        )

    def respond(
        self,
        gpm,
        request: TranslationRequest,
        entry: PageTableEntry,
        served_by: ServedBy,
    ) -> None:
        """Answer the requester directly from a peer GPM."""
        if served_by is ServedBy.PEER and entry.prefetched:
            served_by = ServedBy.PROACTIVE
        if self._tracer is not None:
            self._tracer.async_instant(
                gpm.sim.now, "peer_respond", cat="translation",
                track=gpm.name, span_id=request.request_id,
                args={"gpm": gpm.gpm_id, "served_by": served_by.value},
            )
        self.wafer.network.send(
            Message(
                MessageKind.TRANSLATION_RESP,
                src=gpm.coordinate,
                dst=request.requester_coord,
                payload=(request.vpn, entry, served_by, None),
            )
        )


class BaselinePolicy(TranslationPolicy):
    """Naive centralized translation — the paper's baseline."""

    name = "baseline"


class _ChainPolicy(TranslationPolicy):
    """Shared machinery for sequential probe chains ending at the IOMMU."""

    install_at_probed = True

    def chain_for(self, gpm, vpn: int) -> List[int]:
        """GPM ids to probe, in order."""
        raise NotImplementedError

    def start_remote(self, gpm, pending) -> None:
        request = self.make_request(gpm, pending)
        chain = [g for g in self.chain_for(gpm, pending.vpn)
                 if self.gpm_alive(g)]
        if not chain:
            self.send_to_iommu(gpm.coordinate, request)
            return
        self._probe(gpm.coordinate, request, chain)

    def _probe(
        self, from_coord: Coordinate, request: TranslationRequest, chain: List[int]
    ) -> None:
        self.wafer.network.send(
            Message(
                MessageKind.PEER_PROBE,
                src=from_coord,
                dst=self.coord_of_gpm(chain[0]),
                payload=(request, chain),
            )
        )

    def on_peer_probe(self, gpm, message: Message) -> None:
        request, chain = message.payload
        request.probed_gpms.append(gpm.gpm_id)
        self._trace_step(gpm, request, "peer_probe")
        remaining = chain[1:]

        def _done(entry: Optional[PageTableEntry]) -> None:
            if entry is not None:
                self.respond(gpm, request, entry, ServedBy.PEER)
            elif remaining:
                self._probe(gpm.coordinate, request, remaining)
            else:
                self.send_to_iommu(gpm.coordinate, request)

        gpm.serve_peer_probe(request.vpn, _done)


class RouteCachePolicy(_ChainPolicy):
    """§IV-B: translate-as-you-forward along the XY route to the CPU."""

    name = "route"

    def bind(self, wafer) -> None:
        super().bind(wafer)
        from repro.noc.routing import xy_route

        topology = wafer.topology
        self._chains: Dict[Coordinate, List[int]] = {}
        for gpm in wafer.gpms:
            path = xy_route(gpm.coordinate, topology.cpu_coordinate)
            chain = []
            for coord in path[1:-1]:  # exclude requester and the CPU
                tile = topology.tile_at(*coord)
                if not tile.is_cpu:
                    chain.append(wafer.gpm_id_at(coord))
            self._chains[gpm.coordinate] = chain

    def chain_for(self, gpm, vpn: int) -> List[int]:
        return self._chains[gpm.coordinate]


class ConcentricPolicy(_ChainPolicy):
    """§IV-C: one attempt per concentric layer, progressing inward."""

    name = "concentric"

    def bind(self, wafer) -> None:
        super().bind(wafer)
        self.layout: ConcentricLayout = wafer.layout

    def chain_for(self, gpm, vpn: int) -> List[int]:
        rings = self.layout.probe_rings_for(gpm.coordinate)
        chain = []
        for ring in reversed(rings):  # outermost attempt first, then inward
            tile = self.layout.nearest_member(ring, gpm.coordinate, exclude=gpm.coordinate)
            chain.append(self.wafer.gpm_id_at(tile.coordinate))
        return chain


class DistributedPolicy(_ChainPolicy):
    """The distributed-caching comparison point (§V-A).

    The same number of GPMs as the concentric setup, split into two equal
    groups on the two sides of the CPU.  Each requester probes the nearest
    peer of its own group once; a miss goes straight to the IOMMU.
    """

    name = "distributed"

    def bind(self, wafer) -> None:
        super().bind(wafer)
        topology = wafer.topology
        group_size = wafer.layout.caching_gpm_count()
        halves: List[List] = [[], []]
        for tile in topology.gpm_tiles:
            halves[self._side(topology, tile.coordinate)].append(tile)
        for side in (0, 1):
            halves[side].sort(
                key=lambda t: (
                    topology.manhattan(t.coordinate, topology.cpu_coordinate),
                    t.tile_id,
                )
            )
        per_side = group_size // 2
        self._groups = [halves[0][:per_side], halves[1][:per_side]]

    @staticmethod
    def _side(topology, coordinate: Coordinate) -> int:
        cx, cy = topology.cpu_coordinate
        if coordinate[0] != cx:
            return 0 if coordinate[0] < cx else 1
        return 0 if coordinate[1] < cy else 1

    def chain_for(self, gpm, vpn: int) -> List[int]:
        topology = self.wafer.topology
        group = self._groups[self._side(topology, gpm.coordinate)]
        candidates = [t for t in group if t.coordinate != gpm.coordinate]
        if not candidates:
            return []
        nearest = min(
            candidates,
            key=lambda t: (
                topology.manhattan(gpm.coordinate, t.coordinate),
                t.tile_id,
            ),
        )
        return [self.wafer.gpm_id_at(nearest.coordinate)]


class ClusterRotationPolicy(TranslationPolicy):
    """§IV-D/E: deterministic per-layer holders, probed concurrently."""

    name = "cluster_rotation"

    def bind(self, wafer) -> None:
        super().bind(wafer)
        self.layout: ConcentricLayout = wafer.layout
        self.cluster_maps: Dict[int, ClusterMap] = {
            ring: ClusterMap(
                self.layout.members(ring),
                layer_index=index,
                rotate=self.hdpat.use_rotation,
            )
            for index, ring in enumerate(self.layout.caching_rings)
        }
        # holders_for runs once per remote translation; the ring->members
        # GPM ids and per-requester probe rings are static, so resolve
        # them once here instead of re-deriving tile objects per request.
        self._ring_holder_ids: Dict[int, List[int]] = {
            ring: [
                wafer.gpm_id_at(tile.coordinate)
                for tile in cluster_map.members
            ]
            for ring, cluster_map in self.cluster_maps.items()
        }
        self._probe_rings: Dict[Coordinate, List[int]] = {}

    def holders_for(self, requester: Coordinate, vpn: int) -> List[Tuple[int, int]]:
        """(ring, holder_gpm_id) per probe ring, innermost first."""
        rings = self._probe_rings.get(requester)
        if rings is None:
            rings = self._probe_rings[requester] = (
                self.layout.probe_rings_for(requester)
            )
        cluster_maps = self.cluster_maps
        holder_ids = self._ring_holder_ids
        return [
            (ring, holder_ids[ring][cluster_maps[ring].position_of(vpn)])
            for ring in rings
        ]

    def start_remote(self, gpm, pending) -> None:
        request = self.make_request(gpm, pending)
        holders = [(ring, holder_id)
                   for ring, holder_id in self.holders_for(gpm.coordinate, pending.vpn)
                   if self.gpm_alive(holder_id)]
        if not holders:
            self.send_to_iommu(gpm.coordinate, request)
            return
        inner_ring = holders[0][0]
        sent_any = False
        for ring, holder_id in holders:
            forwards = ring == inner_ring
            if holder_id == gpm.gpm_id:
                # We are this layer's holder and our own probe already
                # missed; forward straight to the IOMMU if we own the duty.
                if forwards:
                    self.send_to_iommu(gpm.coordinate, request)
                    sent_any = True
                continue
            self.wafer.network.send(
                Message(
                    MessageKind.PEER_PROBE,
                    src=gpm.coordinate,
                    dst=self.coord_of_gpm(holder_id),
                    payload=(request, forwards),
                )
            )
            sent_any = True
        if not sent_any:
            self.send_to_iommu(gpm.coordinate, request)

    def on_peer_probe(self, gpm, message: Message) -> None:
        request, forwards = message.payload
        self._trace_step(gpm, request, "peer_probe")

        def _done(entry: Optional[PageTableEntry]) -> None:
            if entry is not None:
                self.respond(gpm, request, entry, ServedBy.PEER)
            elif forwards:
                self.send_to_iommu(gpm.coordinate, request)

        gpm.serve_peer_probe(request.vpn, _done)

    def push_targets(self, vpn: int) -> List[int]:
        return [
            holder_id
            for holder_id in (
                self._ring_holder_ids[ring][
                    self.cluster_maps[ring].position_of(vpn)
                ]
                for ring in self.layout.caching_rings
            )
            if self.gpm_alive(holder_id)
        ]


_SCHEME_POLICIES = {
    PeerCachingScheme.NONE: BaselinePolicy,
    PeerCachingScheme.ROUTE: RouteCachePolicy,
    PeerCachingScheme.CONCENTRIC: ConcentricPolicy,
    PeerCachingScheme.DISTRIBUTED: DistributedPolicy,
    PeerCachingScheme.CLUSTER_ROTATION: ClusterRotationPolicy,
}


def build_policy(hdpat: HDPATConfig) -> TranslationPolicy:
    """Instantiate the policy implied by an HDPAT configuration."""
    return _SCHEME_POLICIES[hdpat.peer_caching](hdpat)
