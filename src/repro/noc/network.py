"""The mesh network: message delivery over XY routes with contention."""

from __future__ import annotations

from collections import defaultdict
from types import MethodType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import DeadDestinationError, RoutingError
from repro.noc.link import Link
from repro.noc.messages import MESSAGE_BYTES, TRANSLATION_KINDS, MessageKind
from repro.noc.routing import route_links
from repro.noc.topology import MeshTopology
from repro.obs import NULL_OBS
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.units import bytes_per_cycle

Coordinate = Tuple[int, int]
#: A tile's handlers: message kind -> a callable taking the payload.
Handlers = Mapping[MessageKind, Callable[[Any], None]]


def _request_id_of(kind: MessageKind, payload: Any) -> Optional[int]:
    """The TranslationRequest id a payload carries, if any (duck-typed)."""
    if kind is MessageKind.PEER_PROBE and isinstance(payload, tuple):
        payload = payload[0]
    return getattr(payload, "request_id", None)


#: The handler table of a tile with nothing attached.
_NO_HANDLERS: Handlers = {}

#: One route-table entry: the route's links, its detour hops over the
#: Manhattan distance, and its ``(kind, size_bytes) -> sends`` tally.
Route = Tuple[Tuple[Link, ...], int, Dict[Tuple[MessageKind, int], int]]


class MeshNetwork(Component):
    """Delivers messages across the mesh.

    Each tile attaches one handler per message kind it receives.
    ``send`` looks its ``(src, dst)`` route up in one table, walks the
    route's links advancing each busy-until clock (latency plus
    contention), bumps the route's ``(kind, size_bytes)`` tally and
    schedules a single delivery event: the destination's handler for the
    kind, bound to the payload.  One event per message keeps the
    simulator fast while preserving geometry-dependent latency and the
    congestion trend, and the event is the handler itself, so profiles
    and race reports name the code that runs.  Every traffic counter is
    derived from the tallies by :meth:`_fold`: at report time, before
    every bandwidth-factor change (so busy cycles stay exact under
    fail-slow links), and when a fault topology epoch retires the table.
    """

    __slots__ = (
        "obs", "_tracer", "_conservation", "_faults", "_plain", "topology",
        "_on_mesh", "link_latency", "link_bytes_per_cycle", "_links", "_routes",
        "_routes_epoch", "_handlers", "_messages_routed", "_total_hops",
        "messages_by_kind", "link_bytes_by_kind",
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
        #: Healthy, untraced and unsanitized: ``send`` returns as soon as
        #: the delivery is scheduled.
        self._plain = (
            faults is None and self._conservation is None and self._tracer is None
        )
        self.topology = topology
        #: All on-mesh coordinates — membership test replaces the per-send
        #: range arithmetic in :meth:`_validate_endpoints`.
        self._on_mesh = frozenset(
            (x, y) for x in range(topology.width) for y in range(topology.height)
        )
        self.link_latency = link_latency
        self.link_bytes_per_cycle = bytes_per_cycle(link_bandwidth_bytes_per_sec)
        self._links: Dict[Tuple[Coordinate, Coordinate], Link] = {}
        #: The route table, healthy and faulted runs alike.  Fail-slow
        #: factors mutate the tabled Link objects in place; a fault
        #: topology epoch folds and drops the whole table.
        self._routes: Dict[Tuple[Coordinate, Coordinate], Route] = {}
        self._routes_epoch = 0
        self._handlers: Dict[Coordinate, Handlers] = {}
        # Folded from the tallies; read through the properties below.
        self._messages_routed = 0
        self._total_hops = 0
        self.messages_by_kind = dict.fromkeys(MessageKind, 0)
        self.link_bytes_by_kind = dict.fromkeys(MessageKind, 0)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, coordinate: Coordinate, handlers: Handlers) -> None:
        """Register a tile's handlers, one per message kind it receives.

        A handler is called with the payload alone; a send of a kind the
        destination has no handler for raises :class:`RoutingError`.
        Under the conservation sanitizer each handler is wrapped to count
        its arrivals.
        """
        if self._conservation is not None:
            handlers = {
                kind: self._conservation.counted(handler)
                for kind, handler in handlers.items()
            }
        self._handlers[coordinate] = handlers

    def _link(self, src: Coordinate, dst: Coordinate) -> Link:
        link = self._links.get((src, dst))
        if link is None:
            link = Link(src, dst, self.link_latency, self.link_bytes_per_cycle)
            self._links[src, dst] = link
        return link

    def _route(self, src: Coordinate, dst: Coordinate) -> Route:
        """Resolve and table the ``(src, dst)`` route on its first send."""
        if self._faults is not None:
            hops, extra_hops = self._faults.route(src, dst)
        else:
            hops, extra_hops = route_links(src, dst), 0
        links = tuple(self._link(a, b) for a, b in hops)
        route = self._routes[(src, dst)] = (links, extra_hops, defaultdict(int))
        return route

    def set_link_bandwidth_factor(
        self, a: Coordinate, b: Coordinate, factor: float
    ) -> None:
        """Apply a fail-slow bandwidth factor to ``a<->b`` (both
        directions).  In-flight transmissions keep their already-charged
        schedule; only messages transmitted after this call serialise at
        the new rate."""
        self._fold()
        self._link(a, b).bandwidth_factor = factor
        self._link(b, a).bandwidth_factor = factor

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def _validate_endpoints(self, src: Coordinate, dst: Coordinate) -> None:
        """Typed errors for undeliverable sends, raised immediately."""
        on_mesh = self._on_mesh
        if src not in on_mesh or dst not in on_mesh:
            width, height = self.topology.width, self.topology.height
            what = "source" if src not in on_mesh else "destination"
            coord = src if src not in on_mesh else dst
            raise RoutingError(
                f"message {what} {coord} outside "
                f"{width}x{height} mesh"
            )
        if (
            self._faults is not None
            and not self._faults.dynamic
            and dst in self._faults.dead_tiles
        ):
            # Static plans fail fast: the destination was dead before the
            # run started, so the send is a caller bug.  Under a timeline
            # the same send is a legitimate race with a mid-run death and
            # becomes a dead-letter in send() instead.
            raise DeadDestinationError(
                f"destination tile {dst} is disabled by the "
                f"fault plan"
            )

    def send(
        self,
        kind: MessageKind,
        src: Coordinate,
        dst: Coordinate,
        payload: Any = (),
        size_bytes: Optional[int] = None,
    ) -> int:
        """Send one ``kind`` message; returns its scheduled delivery cycle.

        The delivery event is the destination's handler for ``kind``
        bound to ``payload`` (a bound method refuses None, so a message
        without a payload carries ``()``).  ``size_bytes`` defaults to
        the kind's :data:`MESSAGE_BYTES`.  A zero-hop send (src == dst)
        delivers next cycle without touching any link.  Undeliverable
        sends raise typed errors immediately (:class:`RoutingError` for an
        off-mesh coordinate or a kind the destination has no handler for,
        :class:`DeadDestinationError` for a fault-disabled tile) instead
        of scheduling an event that would silently hang the run.
        """
        faults = self._faults
        if faults is not None and faults.topology_epoch != self._routes_epoch:
            # The fault topology moved: fold the tallies, drop the table.
            self._fold()
            self._routes.clear()
            self._routes_epoch = faults.topology_epoch
        route = self._routes.get((src, dst))
        if route is None:
            # A tabled route's endpoints were validated on its first send,
            # and a static plan's dead tiles never change.  (Dynamic plans
            # do their dead-tile handling below as dead-letters.)
            self._validate_endpoints(src, dst)
        dead_letter = (
            faults is not None and faults.dynamic and dst in faults.dead_tiles
        )
        handler = self._handlers.get(dst, _NO_HANDLERS).get(kind)
        if handler is None and not dead_letter:
            raise RoutingError(f"no {kind.value} handler attached at {dst}")
        if size_bytes is None:
            size_bytes = MESSAGE_BYTES[kind]
        links, extra_hops, tally = route or self._route(src, dst)
        tally[kind, size_bytes] += 1
        sent_at = self.sim.now
        verdict = None
        if links:
            if extra_hops:
                faults.bump("rerouted_messages")
                faults.bump("rerouted_hops", extra_hops)
            # Transient faults touch the translation plane only: the
            # data plane's outstanding-access window has no retry
            # protocol, while every translation message is covered by
            # the requester-side timeout/retry machinery.
            if faults is not None and not dead_letter and kind in TRANSLATION_KINDS:
                verdict = faults.transient_verdict()
            # The one hop loop: only the busy-until clocks, the waits
            # they imply and the serialisation memo move per hop.
            latency = self.link_latency
            arrival = sent_at
            for link in links:
                start = link.busy_until
                if arrival >= start:
                    start = arrival
                else:
                    link.total_wait_cycles += start - arrival
                link.busy_until = start + (
                    link._ser_cache.get(size_bytes)
                    or link.serialization(size_bytes)
                )
                arrival = start + latency
        else:
            arrival = sent_at + 1
        if self._plain:
            self.sim.schedule_at(arrival, MethodType(handler, payload))
            return arrival
        if verdict == "delay":
            faults.bump("injected.delays")
            arrival += faults.plan.delay_cycles
        conservation = self._conservation
        if conservation is not None:
            # Each send runs to completion and no route repeats a link, so
            # a hop's serialisation is the memo the loop just used.
            for link in links:
                serialization = link.serialization(size_bytes)
                conservation.on_hop((link.src, link.dst), size_bytes, serialization)
        if self._tracer is not None:
            self._trace_send(
                kind, src, dst, payload, size_bytes, sent_at, arrival, links
            )
        if dead_letter:
            # The send raced a mid-run death: its bytes crossed the links
            # but nobody is home at the destination.  Account the loss
            # explicitly so sanitized runs stay green; the requester-side
            # timeout machinery bounds any translation waiting on it.
            faults.bump("timeline.dead_letters")
            if conservation is not None:
                conservation.on_send()
                conservation.on_drop()
            return arrival
        if verdict == "drop":
            # The message traversed its links (the bytes were spent) but
            # never arrives; the conservation ledger is told explicitly so
            # sanitized runs stay green under injected faults.
            faults.bump("injected.drops")
            if conservation is not None:
                conservation.on_send()
                conservation.on_drop()
            return arrival
        if conservation is not None:
            conservation.on_send()
        delivery = MethodType(handler, payload)
        self.sim.schedule_at(arrival, delivery)
        if verdict == "duplicate":
            faults.bump("injected.duplicates")
            if conservation is not None:
                conservation.on_send()
            self.sim.schedule_at(arrival + 1, delivery)
        return arrival

    def _trace_send(
        self, kind: MessageKind, src: Coordinate, dst: Coordinate,
        payload: Any, size_bytes: int, sent_at: int, arrival: int, links,
    ) -> None:
        """Record a message transit plus its per-hop delivery times.

        A hop's delivery time is read back after the hop loop as
        ``busy_until - serialisation + latency``, exact because each send
        runs to completion and no route repeats a link.  Messages whose
        payload carries a :class:`TranslationRequest` also get an async step
        event keyed by the request id, stitching the NoC leg into the
        request's remote-translation span.
        """
        name = f"noc.{kind.value}"
        args = {
            "src": list(src),
            "dst": list(dst),
            "bytes": size_bytes,
        }
        if links:
            latency = self.link_latency
            args["hops"] = [
                [list(link.src), list(link.dst),
                 link.busy_until - link.serialization(size_bytes) + latency]
                for link in links
            ]
        self._tracer.complete(
            sent_at, arrival - sent_at, name, cat="noc",
            track="noc", args=args,
        )
        request_id = _request_id_of(kind, payload)
        if request_id is not None:
            self._tracer.async_instant(
                sent_at, name, cat="translation", track="noc",
                span_id=request_id,
                args={"deliver_at": arrival, "hops": len(links)},
            )

    # ------------------------------------------------------------------
    # Traffic accounting (§V-D: HDPAT adds only 0.82 % traffic)
    # ------------------------------------------------------------------
    def _fold(self) -> None:
        """Fold every route's tally into the link and network counters."""
        for links, _extra_hops, tally in self._routes.values():
            hops = len(links)
            for (kind, size_bytes), count in tally.items():
                self.messages_by_kind[kind] += count
                if not hops:
                    continue
                self._messages_routed += count
                self._total_hops += hops * count
                self.link_bytes_by_kind[kind] += size_bytes * count * hops
                translation = kind in TRANSLATION_KINDS
                for link in links:
                    link.messages_carried += count
                    link.bytes_carried += size_bytes * count
                    link.busy_cycles += link.serialization(size_bytes) * count
                    if translation:
                        link.translation_bytes += size_bytes * count
            tally.clear()

    @property
    def messages_sent(self) -> int:
        """Every send, zero-hop deliveries included."""
        self._fold()
        return sum(self.messages_by_kind.values())

    @property
    def messages_routed(self) -> int:
        """Sends that crossed links; zero-hop ones must not deflate mean_hops."""
        self._fold()
        return self._messages_routed

    @property
    def total_hops(self) -> int:
        self._fold()
        return self._total_hops

    def total_link_bytes(self) -> int:
        """Total bytes x hops carried by the mesh."""
        self._fold()
        return sum(link.bytes_carried for link in self._links.values())

    def translation_link_bytes(self) -> int:
        self._fold()
        return sum(link.translation_bytes for link in self._links.values())

    def mean_hops(self) -> float:
        """Mean hops per *routed* message (zero-hop sends excluded)."""
        routed = self.messages_routed
        return self._total_hops / routed if routed else 0.0

    def link_wait_cycles(self) -> int:
        """Total contention-induced waiting across all links."""
        return sum(link.total_wait_cycles for link in self._links.values())

    def link_report(self) -> List[Dict[str, object]]:
        """Per-link traffic/occupancy rows, sorted for stable output.

        Fault-injected runs add a ``failed`` flag per row, plus zero rows
        for dead links that never carried traffic; no-fault runs keep the
        historical row shape byte-for-byte.
        """
        self._fold()
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
        self._fold()
        report = {
            kind.value: {
                "messages": sent,
                "link_bytes": self.link_bytes_by_kind[kind],
            }
            for kind, sent in self.messages_by_kind.items()
            if sent
        }
        report["total"] = {
            "messages": self.messages_sent,
            "link_bytes": self.total_link_bytes(),
        }
        return report
