"""Tests for the mesh network: delivery latency, contention, traffic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.faults.plan import FaultPlan
from repro.faults.state import FaultState
from repro.noc.messages import MESSAGE_BYTES, TRANSLATION_KINDS, MessageKind
from repro.noc.network import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.obs.profile import HostProfiler
from repro.sim.engine import Simulator
from repro.units import serialization_cycles


@pytest.fixture
def network(sim):
    return MeshNetwork(sim, MeshTopology(5, 5), link_latency=32)


def _attach_everywhere(network, handler):
    """Attach ``handler`` for every kind at every tile."""
    for x in range(network.topology.width):
        for y in range(network.topology.height):
            network.attach((x, y), dict.fromkeys(MessageKind, handler))


@pytest.fixture
def mesh(network):
    """The 5x5 network with a do-nothing handler for every kind everywhere."""
    _attach_everywhere(network, lambda payload: None)
    return network


def _send(network, src, dst, kind=MessageKind.TRANSLATION_REQ, size=None):
    return network.send(kind, src, dst, size_bytes=size)


class _Tile:
    def on_probe(self, payload):
        assert payload == "probe"


class TestDelivery:
    def test_latency_scales_with_hops(self, sim, network):
        delivered = []
        _attach_everywhere(network, lambda payload: delivered.append(sim.now))
        _send(network, (0, 0), (3, 0))
        sim.run()
        assert delivered == [3 * 32]

    def test_zero_hop_delivers_next_cycle(self, sim, network):
        delivered = []
        _attach_everywhere(network, lambda payload: delivered.append(sim.now))
        _send(network, (1, 1), (1, 1))
        sim.run()
        assert delivered == [1]

    def test_attached_handler_receives(self, sim, network):
        received = []
        network.attach((2, 2), {MessageKind.PTE_PUSH: received.append})
        payload = ["entry"]
        network.send(MessageKind.PTE_PUSH, (0, 0), (2, 2), payload)
        sim.run()
        assert received == [payload]

    def test_send_without_payload_delivers_empty_tuple(self, sim, network):
        received = []
        network.attach((2, 2), {MessageKind.DATA_REQ: received.append})
        network.send(MessageKind.DATA_REQ, (0, 0), (2, 2))
        sim.run()
        assert received == [()]

    def test_delivery_event_is_the_handler(self, sim, network):
        """The scheduled event is the handler bound to the payload, so
        profiles and race labels name the handler, not the network."""
        profiler = sim.profiler = HostProfiler()
        network.attach((2, 2), {MessageKind.PEER_PROBE: _Tile().on_probe})
        network.send(MessageKind.PEER_PROBE, (0, 0), (2, 2), "probe")
        sim.run()
        assert list(profiler.counts) == [(__name__, "_Tile.on_probe")]

    def test_missing_handler_raises(self, network):
        with pytest.raises(RoutingError):
            _send(network, (0, 0), (4, 4))

    def test_kind_without_handler_raises_at_send(self, sim, network):
        network.attach((4, 4), {MessageKind.DATA_REQ: lambda payload: None})
        with pytest.raises(RoutingError, match="translation_req"):
            network.send(MessageKind.TRANSLATION_REQ, (0, 0), (4, 4))
        # Nothing was scheduled and no link or tally moved.
        assert sim.pending_events == 0
        assert network.messages_sent == 0
        assert network.link_wait_cycles() == 0
        assert not network._links

    def test_off_mesh_destination_raises(self, network):
        with pytest.raises(RoutingError):
            _send(network, (0, 0), (99, 0))

    def test_reattach_replaces_the_table(self, sim, network):
        network.attach((2, 2), {MessageKind.DATA_REQ: lambda p: pytest.fail()})
        got = []
        network.attach((2, 2), {MessageKind.DATA_REQ: got.append})
        network.send(MessageKind.DATA_REQ, (0, 0), (2, 2), 7)
        sim.run()
        assert got == [7]


class TestContention:
    def test_large_messages_serialize_on_shared_link(self, sim):
        # Narrow link: 8 bytes/cycle, so a 64-byte message holds the link
        # for 8 cycles and a burst must serialize.
        network = MeshNetwork(
            sim, MeshTopology(3, 3), link_latency=10,
            link_bandwidth_bytes_per_sec=8e9,
        )
        times = []
        _attach_everywhere(network, lambda payload: times.append(sim.now))
        for _ in range(3):
            _send(network, (0, 0), (1, 0), size=64)
        sim.run()
        assert times == [10, 18, 26]
        assert network.link_wait_cycles() > 0

    def test_disjoint_links_do_not_contend(self, sim):
        network = MeshNetwork(
            sim, MeshTopology(3, 3), link_latency=10,
            link_bandwidth_bytes_per_sec=8e9,
        )
        times = []
        _attach_everywhere(network, lambda payload: times.append(sim.now))
        _send(network, (0, 0), (1, 0), size=64)
        _send(network, (0, 1), (1, 1), size=64)
        sim.run()
        assert times == [10, 10]


class TestTraffic:
    def test_total_bytes_counts_bytes_times_hops(self, sim, mesh):
        _send(mesh, (0, 0), (2, 0), size=100)
        sim.run()
        assert mesh.total_link_bytes() == 200

    def test_translation_traffic_separated(self, sim, mesh):
        _send(mesh, (0, 0), (1, 0), kind=MessageKind.DATA_RESP, size=80)
        _send(mesh, (0, 0), (1, 0), kind=MessageKind.TRANSLATION_REQ, size=16)
        sim.run()
        assert mesh.total_link_bytes() == 96
        assert mesh.translation_link_bytes() == 16

    def test_mean_hops(self, sim, mesh):
        _send(mesh, (0, 0), (2, 0))
        _send(mesh, (0, 0), (4, 0))
        sim.run()
        assert mesh.mean_hops() == pytest.approx(3.0)

    def test_mean_hops_excludes_zero_hop_sends(self, sim, mesh):
        _send(mesh, (0, 0), (2, 0))  # 2 hops
        _send(mesh, (0, 0), (4, 0))  # 4 hops
        _send(mesh, (1, 1), (1, 1))  # local, 0 hops
        sim.run()
        assert mesh.messages_sent == 3
        assert mesh.messages_routed == 2
        assert mesh.mean_hops() == pytest.approx(3.0)

    def test_mean_hops_all_local_is_zero(self, sim, mesh):
        _send(mesh, (1, 1), (1, 1))
        sim.run()
        assert mesh.messages_routed == 0
        assert mesh.mean_hops() == 0.0


class TestMessageDefaults:
    def test_default_sizes_by_kind(self, sim, mesh):
        _send(mesh, (0, 0), (1, 0))
        _send(mesh, (0, 0), (1, 0), kind=MessageKind.DATA_RESP)
        assert mesh.total_link_bytes() == 16 + 80
        assert MESSAGE_BYTES[MessageKind.DATA_RESP] == 80

    def test_translation_kind_classification(self, sim, mesh):
        _send(mesh, (0, 0), (1, 0), kind=MessageKind.PTE_PUSH)
        _send(mesh, (0, 0), (1, 0), kind=MessageKind.DATA_REQ)
        assert MessageKind.PTE_PUSH in TRANSLATION_KINDS
        assert MessageKind.DATA_REQ not in TRANSLATION_KINDS
        assert mesh.translation_link_bytes() == MESSAGE_BYTES[MessageKind.PTE_PUSH]


class TestTrafficReport:
    def test_per_kind_accounting(self, sim, mesh):
        _send(mesh, (0, 0), (2, 0), kind=MessageKind.DATA_RESP, size=80)
        _send(mesh, (0, 0), (1, 0), kind=MessageKind.TRANSLATION_REQ, size=16)
        sim.run()
        report = mesh.traffic_report()
        assert report["data_resp"]["messages"] == 1
        assert report["data_resp"]["link_bytes"] == 160  # 80 B x 2 hops
        assert report["translation_req"]["link_bytes"] == 16
        assert report["total"]["messages"] == 2
        assert report["total"]["link_bytes"] == 176

    def test_zero_hop_messages_carry_no_link_bytes(self, sim, mesh):
        _send(mesh, (1, 1), (1, 1))
        sim.run()
        report = mesh.traffic_report()
        assert report["total"]["link_bytes"] == 0
        assert report["translation_req"]["messages"] == 1


class _ReferenceLink:
    """The per-hop accounting every send used to do, kept as an oracle."""

    def __init__(self, bytes_per_cycle, latency):
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.factor = 1.0
        self.busy_until = 0
        self.wait = self.bytes = self.translation_bytes = 0
        self.messages = self.busy_cycles = 0

    def transmit(self, arrival, size_bytes, is_translation):
        start = max(arrival, self.busy_until)
        self.wait += start - arrival
        serialization = serialization_cycles(
            size_bytes, self.bytes_per_cycle * self.factor
        )
        self.busy_until = start + serialization
        self.busy_cycles += serialization
        self.bytes += size_bytes
        self.messages += 1
        if is_translation:
            self.translation_bytes += size_bytes
        return start + self.latency


_COORDS = [(x, y) for x in range(3) for y in range(3)]
_FLIPPABLE = [((0, 0), (1, 0)), ((1, 1), (1, 2)), ((1, 0), (2, 0))]
_SENDS = st.lists(
    st.tuples(
        st.sampled_from(_COORDS), st.sampled_from(_COORDS),
        st.sampled_from(list(MessageKind)),
        st.sampled_from([None, 1, 16, 80, 1000]),
    ),
    min_size=1, max_size=6,
)
_EVENTS = st.one_of(
    st.tuples(
        st.just("factor"), st.sampled_from(_COORDS[:6]),
        st.sampled_from([1.0, 0.5, 1 / 3, 1 / 16]),
    ),
    st.tuples(st.just("flip"), st.sampled_from(_FLIPPABLE)),
    st.tuples(st.just("advance"), st.integers(1, 60)),
)
#: Rounds of sends, then one factor change, link flip or time advance,
#: then (maybe) a mid-run report check.
_ROUNDS = st.lists(st.tuples(_SENDS, _EVENTS, st.booleans()), max_size=8)


class TestReferenceModel:
    """Random sends, fail-slow factor changes and dead-link epoch flips
    against a naive per-hop model.

    Delivery cycles are compared on every send.  The report accessors
    fold the route tallies, so they are compared after random rounds and
    at the end: sends followed by a factor change with no check in
    between is what catches a missing fold."""

    @settings(max_examples=60, deadline=None)
    @given(_ROUNDS)
    def test_matches_per_hop_model(self, rounds):
        sim = Simulator()
        faults = FaultState(FaultPlan(), MeshTopology(3, 3))
        network = MeshNetwork(
            sim, MeshTopology(3, 3), link_latency=3,
            link_bandwidth_bytes_per_sec=8e9, faults=faults,
        )
        links = {}
        sent = routed = hops = 0
        by_kind = {}
        expected, delivered = [], []
        _attach_everywhere(network, lambda i: delivered.append((i, sim.now)))

        def ref_link(key):
            if key not in links:
                links[key] = _ReferenceLink(network.link_bytes_per_cycle, 3)
            return links[key]

        def check():
            now = sim.now
            rows = [
                {
                    "src": key[0], "dst": key[1], "messages": link.messages,
                    "bytes": link.bytes,
                    "translation_bytes": link.translation_bytes,
                    "wait_cycles": link.wait,
                    "busy_fraction": (
                        min(1.0, link.busy_cycles / now) if now > 0 else 0.0
                    ),
                    "failed": key in faults.dead_links,
                }
                for key, link in sorted(links.items())
            ]
            for key in sorted(faults.dead_links - set(links)):
                rows.append({
                    "src": key[0], "dst": key[1], "messages": 0, "bytes": 0,
                    "translation_bytes": 0, "wait_cycles": 0,
                    "busy_fraction": 0.0, "failed": True,
                })
            rows.sort(key=lambda row: (row["src"], row["dst"]))
            assert network.link_report() == rows
            # busy_fraction saturates; the folded busy cycles are exact.
            assert {key: link.busy_cycles for key, link in network._links.items()} == {
                key: link.busy_cycles for key, link in links.items()
            }
            total_bytes = sum(link.bytes for link in links.values())
            traffic = {
                kind.value: {"messages": count, "link_bytes": link_bytes}
                for kind, (count, link_bytes) in by_kind.items()
            }
            traffic["total"] = {"messages": sent, "link_bytes": total_bytes}
            assert network.traffic_report() == traffic
            assert network.total_link_bytes() == total_bytes
            assert network.translation_link_bytes() == sum(
                link.translation_bytes for link in links.values()
            )
            assert network.link_wait_cycles() == sum(
                link.wait for link in links.values()
            )
            assert network.mean_hops() == (hops / routed if routed else 0.0)
            assert (network.messages_sent, network.messages_routed) == (sent, routed)
            assert network.total_hops == hops

        for sends, event, check_after in rounds:
            for src, dst, kind, size in sends:
                size_bytes = MESSAGE_BYTES[kind] if size is None else size
                route, _extra = faults.route(src, dst)
                arrival = sim.now if route else sim.now + 1
                for key in route:
                    arrival = ref_link(key).transmit(
                        arrival, size_bytes, kind in TRANSLATION_KINDS
                    )
                sent += 1
                routed += bool(route)
                hops += len(route)
                count, link_bytes = by_kind.get(kind, (0, 0))
                by_kind[kind] = (count + 1, link_bytes + size_bytes * len(route))
                expected.append(arrival)
                # The payload is the send's index; every tile records it.
                assert network.send(
                    kind, src, dst, len(expected) - 1, size
                ) == arrival
            if event[0] == "factor":
                _, a, factor = event
                b = (a[0] + 1, a[1])
                network.set_link_bandwidth_factor(a, b, factor)
                ref_link((a, b)).factor = ref_link((b, a)).factor = factor
            elif event[0] == "flip":
                # At most one flippable link is dead at a time, so the
                # mesh stays connected; each restore bumps the epoch.
                link = event[1]
                dead = link in faults.dead_links
                for other in _FLIPPABLE:
                    faults.restore_link(other)
                if not dead:
                    faults.dead_links.update({link, link[::-1]})
            else:
                sim.schedule(event[1], lambda: None)
                sim.run_until(sim.now + event[1])
            if check_after:
                check()
        check()
        sim.run()
        assert sorted(delivered) == list(enumerate(expected))
