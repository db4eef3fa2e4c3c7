"""The mesh network: message delivery over XY routes with contention."""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DeadDestinationError, RoutingError
from repro.noc.link import Link
from repro.noc.messages import TRANSLATION_KINDS, Message, MessageKind
from repro.noc.routing import route_links
from repro.noc.topology import MeshTopology
from repro.obs import NULL_OBS
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.units import bytes_per_cycle

Coordinate = Tuple[int, int]
DeliveryFn = Callable[[Message], None]


def _request_id_of(message: Message) -> Optional[int]:
    """The TranslationRequest id a message carries, if any (duck-typed)."""
    payload = message.payload
    if message.kind is MessageKind.PEER_PROBE and isinstance(payload, tuple):
        payload = payload[0]
    return getattr(payload, "request_id", None)


class MeshNetwork(Component):
    """Delivers messages across the mesh.

    ``send`` computes the XY route once, walks its links accumulating
    latency and contention (each :class:`Link` keeps a busy-until clock),
    and schedules a single delivery event — one event per message keeps the
    simulator fast while preserving geometry-dependent latency, the
    congestion trend, and exact per-link traffic accounting.
    """

    __slots__ = (
        "obs",
        "_tracer",
        "_conservation",
        "_faults",
        "topology",
        "_on_mesh",
        "link_latency",
        "link_bytes_per_cycle",
        "_links",
        "_route_cache",
        "_handlers",
        "messages_sent",
        "messages_routed",
        "total_hops",
        "messages_by_kind",
        "link_bytes_by_kind",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: MeshTopology,
        link_latency: int = 32,
        link_bandwidth_bytes_per_sec: float = 768e9,
        obs=None,
        faults=None,
    ) -> None:
        super().__init__(sim, "mesh")
        self.obs = obs if obs is not None else NULL_OBS
        self._tracer = self.obs.tracer if self.obs.tracer.enabled else None
        sanitizer = getattr(sim, "sanitizer", None)
        #: Byte-conservation shadow ledger, armed by ``sanitize=True`` runs.
        self._conservation = (
            sanitizer.watch_network(self) if sanitizer is not None else None
        )
        #: Optional :class:`~repro.faults.state.FaultState`; None keeps the
        #: no-fault fast path byte-identical to the pre-fault simulator.
        self._faults = faults
        self.topology = topology
        #: All on-mesh coordinates — membership test replaces the per-send
        #: range arithmetic in :meth:`_validate_endpoints`.
        self._on_mesh = frozenset(
            (x, y)
            for x in range(topology.width)
            for y in range(topology.height)
        )
        self.link_latency = link_latency
        self.link_bytes_per_cycle = bytes_per_cycle(link_bandwidth_bytes_per_sec)
        self._links: Dict[Tuple[Coordinate, Coordinate], Link] = {}
        #: No-fault route cache: (src, dst) -> (resolved [(hop_key, Link)],
        #: links-only list for the unpacking-free transmit loop).  Safe
        #: because topology and XY routes are static and fail-slow factors
        #: mutate the cached Link objects in place; fault runs (detours,
        #: dead links) bypass the cache entirely.
        self._route_cache: Dict[
            Tuple[Coordinate, Coordinate],
            Tuple[
                List[Tuple[Tuple[Coordinate, Coordinate], Link]],
                List[Link],
            ],
        ] = {}
        self._handlers: Dict[Coordinate, DeliveryFn] = {}
        self.messages_sent = 0
        #: Messages that actually traversed links (src != dst).  Zero-hop
        #: deliveries count toward ``messages_sent`` (traffic report) but
        #: must not deflate :meth:`mean_hops`.
        self.messages_routed = 0
        self.total_hops = 0
        # Per-kind accounting: messages and bytes x hops by MessageKind.
        # defaultdicts keep the per-send increments to one dict op; reads
        # elsewhere all use ``.get`` so no spurious keys appear.
        self.messages_by_kind: Dict[object, int] = defaultdict(int)
        self.link_bytes_by_kind: Dict[object, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, coordinate: Coordinate, handler: DeliveryFn) -> None:
        """Register the message handler for a tile."""
        self._handlers[coordinate] = handler

    def _link(self, src: Coordinate, dst: Coordinate) -> Link:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            link = Link(src, dst, self.link_latency, self.link_bytes_per_cycle)
            self._links[key] = link
        return link

    def set_link_bandwidth_factor(
        self, a: Coordinate, b: Coordinate, factor: float
    ) -> None:
        """Apply a fail-slow bandwidth factor to ``a<->b`` (both
        directions).  In-flight transmissions keep their already-charged
        schedule; only messages transmitted after this call serialise at
        the new rate."""
        self._link(a, b).bandwidth_factor = factor
        self._link(b, a).bandwidth_factor = factor

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def _validate_endpoints(self, message: Message) -> None:
        """Typed errors for undeliverable sends, raised immediately."""
        on_mesh = self._on_mesh
        if message.src not in on_mesh or message.dst not in on_mesh:
            width, height = self.topology.width, self.topology.height
            what = "source" if message.src not in on_mesh else "destination"
            coord = message.src if message.src not in on_mesh else message.dst
            raise RoutingError(
                f"message {what} {coord} outside "
                f"{width}x{height} mesh"
            )
        if (
            self._faults is not None
            and not self._faults.dynamic
            and message.dst in self._faults.dead_tiles
        ):
            # Static plans fail fast: the destination was dead before the
            # run started, so the send is a caller bug.  Under a timeline
            # the same send is a legitimate race with a mid-run death and
            # becomes a dead-letter in send() instead.
            raise DeadDestinationError(
                f"destination tile {message.dst} is disabled by the "
                f"fault plan"
            )

    def send(self, message: Message, on_deliver: DeliveryFn = None) -> int:
        """Send ``message``; returns its scheduled delivery cycle.

        Delivery goes to ``on_deliver`` when given, otherwise to the handler
        attached at the destination tile.  A zero-hop send (src == dst)
        delivers next cycle without touching any link.  Undeliverable
        sends raise typed errors immediately (:class:`RoutingError` for an
        off-mesh coordinate or missing handler,
        :class:`DeadDestinationError` for a fault-disabled tile) instead
        of scheduling an event that would silently hang the run.
        """
        src = message.src
        dst = message.dst
        faults = self._faults
        # Fast path skips _validate_endpoints entirely: with both
        # endpoints on the mesh and no static fault plan, the method can
        # only fall through.  (Dynamic plans do their dead-tile handling
        # below as dead-letters, exactly as before.)
        on_mesh = self._on_mesh
        if (
            src not in on_mesh
            or dst not in on_mesh
            or (faults is not None and not faults.dynamic)
        ):
            self._validate_endpoints(message)
        dead_letter = (
            faults is not None and faults.dynamic and dst in faults.dead_tiles
        )
        handler = on_deliver or self._handlers.get(dst)
        if handler is None and not dead_letter:
            raise RoutingError(f"no handler attached at {dst}")
        kind = message.kind
        self.messages_sent += 1
        self.messages_by_kind[kind] += 1
        sent_at = self.sim.now
        arrival = sent_at
        hop_times = None
        verdict = None
        if src != dst:
            size_bytes = message.size_bytes
            is_translation = kind in TRANSLATION_KINDS
            if faults is not None:
                hops, extra_hops = faults.route(src, dst)
                if extra_hops:
                    faults.bump("rerouted_messages")
                    faults.bump("rerouted_hops", extra_hops)
                # Transient faults touch the translation plane only: the
                # data plane's outstanding-access window has no retry
                # protocol, while every translation message is covered by
                # the requester-side timeout/retry machinery.
                if is_translation and not dead_letter:
                    verdict = faults.transient_verdict()
                route = [((a, b), self._link(a, b)) for a, b in hops]
                links = None
            else:
                route_key = (src, dst)
                cached = self._route_cache.get(route_key)
                if cached is None:
                    route = [
                        ((a, b), self._link(a, b))
                        for a, b in route_links(src, dst)
                    ]
                    links = [link for _key, link in route]
                    self._route_cache[route_key] = (route, links)
                else:
                    route, links = cached
            num_hops = len(route)
            self.messages_routed += 1
            self.total_hops += num_hops
            self.link_bytes_by_kind[kind] += size_bytes * num_hops
            if self._tracer is not None:
                hop_times = []
            conservation = self._conservation
            if links is not None and conservation is None and hop_times is None:
                for link in links:
                    arrival = link.transmit(arrival, size_bytes, is_translation)
            else:
                for hop_key, link in route:
                    arrival = link.transmit(arrival, size_bytes, is_translation)
                    if conservation is not None:
                        conservation.on_hop(
                            hop_key, size_bytes, link.last_serialization
                        )
                    if hop_times is not None:
                        hop_times.append(
                            [list(hop_key[0]), list(hop_key[1]), arrival]
                        )
        else:
            arrival += 1
        if verdict == "delay":
            faults.bump("injected.delays")
            arrival += faults.plan.delay_cycles
        if self._tracer is not None:
            self._trace_send(message, sent_at, arrival, hop_times)
        if dead_letter:
            # The send raced a mid-run death: its bytes crossed the links
            # but nobody is home at the destination.  Account the loss
            # explicitly so sanitized runs stay green; the requester-side
            # timeout machinery bounds any translation waiting on it.
            faults.bump("timeline.dead_letters")
            if self._conservation is not None:
                self._conservation.on_send()
                self._conservation.on_drop()
            return arrival
        if verdict == "drop":
            # The message traversed its links (the bytes were spent) but
            # never arrives; the conservation ledger is told explicitly so
            # sanitized runs stay green under injected faults.
            faults.bump("injected.drops")
            if self._conservation is not None:
                self._conservation.on_send()
                self._conservation.on_drop()
            return arrival
        if self._conservation is None:
            self.sim.schedule_at(arrival, lambda: handler(message))
            if verdict == "duplicate":
                faults.bump("injected.duplicates")
                self.sim.schedule_at(arrival + 1, lambda: handler(message))
        else:
            conservation = self._conservation
            conservation.on_send()
            self.sim.schedule_at(
                arrival, lambda: conservation.deliver(handler, message)
            )
            if verdict == "duplicate":
                faults.bump("injected.duplicates")
                conservation.on_send()
                self.sim.schedule_at(
                    arrival + 1,
                    lambda: conservation.deliver(handler, message),
                )
        return arrival

    def _trace_send(
        self, message: Message, sent_at: int, arrival: int, hop_times
    ) -> None:
        """Record a message transit plus its per-hop delivery times.

        Messages still carrying a :class:`TranslationRequest` also get an
        async step event keyed by the request id, stitching the NoC leg
        into the request's remote-translation span.
        """
        kind = message.kind.value
        args = {
            "src": list(message.src),
            "dst": list(message.dst),
            "bytes": message.size_bytes,
        }
        if hop_times:
            args["hops"] = hop_times
        self._tracer.complete(
            sent_at, arrival - sent_at, f"noc.{kind}", cat="noc",
            track="noc", args=args,
        )
        request_id = _request_id_of(message)
        if request_id is not None:
            self._tracer.async_instant(
                sent_at, f"noc.{kind}", cat="translation", track="noc",
                span_id=request_id,
                args={"deliver_at": arrival, "hops": len(hop_times or ())},
            )

    # ------------------------------------------------------------------
    # Traffic accounting (§V-D: HDPAT adds only 0.82 % traffic)
    # ------------------------------------------------------------------
    def total_link_bytes(self) -> int:
        """Total bytes x hops carried by the mesh."""
        return sum(link.bytes_carried for link in self._links.values())

    def translation_link_bytes(self) -> int:
        return sum(link.translation_bytes for link in self._links.values())

    def mean_hops(self) -> float:
        """Mean hops per *routed* message (zero-hop sends excluded)."""
        return (
            self.total_hops / self.messages_routed if self.messages_routed else 0.0
        )

    def link_wait_cycles(self) -> int:
        """Total contention-induced waiting across all links."""
        return sum(link.total_wait_cycles for link in self._links.values())

    def link_report(self) -> List[Dict[str, object]]:
        """Per-link traffic/occupancy rows, sorted for stable output.

        Fault-injected runs add a ``failed`` flag per row, plus zero rows
        for dead links that never carried traffic; no-fault runs keep the
        historical row shape byte-for-byte.
        """
        now = self.sim.now
        rows = {
            key: {
                "src": link.src,
                "dst": link.dst,
                "messages": link.messages_carried,
                "bytes": link.bytes_carried,
                "translation_bytes": link.translation_bytes,
                "wait_cycles": link.total_wait_cycles,
                "busy_fraction": link.busy_fraction(now),
            }
            for key, link in self._links.items()
        }
        if self._faults is not None:
            for key in self._faults.dead_links:
                rows.setdefault(key, {
                    "src": key[0],
                    "dst": key[1],
                    "messages": 0,
                    "bytes": 0,
                    "translation_bytes": 0,
                    "wait_cycles": 0,
                    "busy_fraction": 0.0,
                })
            for key, row in rows.items():
                row["failed"] = key in self._faults.dead_links
            if self._faults.dynamic:
                for key, row in rows.items():
                    link = self._links.get(key)
                    row["bandwidth_factor"] = (
                        link.bandwidth_factor if link is not None else 1.0
                    )
        return [rows[key] for key in sorted(rows)]

    def traffic_report(self) -> Dict[str, Dict[str, int]]:
        """Per-message-kind messages and bytes x hops, plus totals."""
        report = {
            kind.value: {
                "messages": self.messages_by_kind.get(kind, 0),
                "link_bytes": self.link_bytes_by_kind.get(kind, 0),
            }
            for kind in self.messages_by_kind
        }
        report["total"] = {
            "messages": self.messages_sent,
            "link_bytes": self.total_link_bytes(),
        }
        return report
