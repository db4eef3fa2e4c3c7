"""Tests for the mesh network: delivery latency, contention, traffic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.faults.plan import FaultPlan
from repro.faults.state import FaultState
from repro.noc.messages import TRANSLATION_KINDS, Message, MessageKind
from repro.noc.network import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.sim.engine import Simulator
from repro.units import serialization_cycles


@pytest.fixture
def network(sim):
    return MeshNetwork(sim, MeshTopology(5, 5), link_latency=32)


def _msg(src, dst, kind=MessageKind.TRANSLATION_REQ, size=None):
    return Message(kind, src=src, dst=dst, payload=None, size_bytes=size)


class TestDelivery:
    def test_latency_scales_with_hops(self, sim, network):
        delivered = []
        network.send(_msg((0, 0), (3, 0)), lambda m: delivered.append(sim.now))
        sim.run()
        assert delivered == [3 * 32]

    def test_zero_hop_delivers_next_cycle(self, sim, network):
        delivered = []
        network.send(_msg((1, 1), (1, 1)), lambda m: delivered.append(sim.now))
        sim.run()
        assert delivered == [1]

    def test_attached_handler_receives(self, sim, network):
        received = []
        network.attach((2, 2), lambda m: received.append(m))
        message = _msg((0, 0), (2, 2))
        network.send(message)
        sim.run()
        assert received == [message]

    def test_missing_handler_raises(self, network):
        with pytest.raises(RoutingError):
            network.send(_msg((0, 0), (4, 4)))

    def test_off_mesh_destination_raises(self, network):
        with pytest.raises(RoutingError):
            network.send(_msg((0, 0), (99, 0)))

    def test_explicit_handler_overrides_attached(self, sim, network):
        network.attach((2, 2), lambda m: pytest.fail("should not be called"))
        got = []
        network.send(_msg((0, 0), (2, 2)), lambda m: got.append(m))
        sim.run()
        assert len(got) == 1


class TestContention:
    def test_large_messages_serialize_on_shared_link(self, sim):
        # Narrow link: 8 bytes/cycle, so a 64-byte message holds the link
        # for 8 cycles and a burst must serialize.
        network = MeshNetwork(
            sim, MeshTopology(3, 3), link_latency=10,
            link_bandwidth_bytes_per_sec=8e9,
        )
        times = []
        for _ in range(3):
            network.send(
                _msg((0, 0), (1, 0), size=64), lambda m: times.append(sim.now)
            )
        sim.run()
        assert times == [10, 18, 26]
        assert network.link_wait_cycles() > 0

    def test_disjoint_links_do_not_contend(self, sim):
        network = MeshNetwork(
            sim, MeshTopology(3, 3), link_latency=10,
            link_bandwidth_bytes_per_sec=8e9,
        )
        times = []
        network.send(_msg((0, 0), (1, 0), size=64), lambda m: times.append(sim.now))
        network.send(_msg((0, 1), (1, 1), size=64), lambda m: times.append(sim.now))
        sim.run()
        assert times == [10, 10]


class TestTraffic:
    def test_total_bytes_counts_bytes_times_hops(self, sim, network):
        network.send(_msg((0, 0), (2, 0), size=100), lambda m: None)
        sim.run()
        assert network.total_link_bytes() == 200

    def test_translation_traffic_separated(self, sim, network):
        network.send(
            _msg((0, 0), (1, 0), kind=MessageKind.DATA_RESP, size=80),
            lambda m: None,
        )
        network.send(
            _msg((0, 0), (1, 0), kind=MessageKind.TRANSLATION_REQ, size=16),
            lambda m: None,
        )
        sim.run()
        assert network.total_link_bytes() == 96
        assert network.translation_link_bytes() == 16

    def test_mean_hops(self, sim, network):
        network.send(_msg((0, 0), (2, 0)), lambda m: None)
        network.send(_msg((0, 0), (4, 0)), lambda m: None)
        sim.run()
        assert network.mean_hops() == pytest.approx(3.0)

    def test_mean_hops_excludes_zero_hop_sends(self, sim, network):
        network.send(_msg((0, 0), (2, 0)), lambda m: None)  # 2 hops
        network.send(_msg((0, 0), (4, 0)), lambda m: None)  # 4 hops
        network.send(_msg((1, 1), (1, 1)), lambda m: None)  # local, 0 hops
        sim.run()
        assert network.messages_sent == 3
        assert network.messages_routed == 2
        assert network.mean_hops() == pytest.approx(3.0)

    def test_mean_hops_all_local_is_zero(self, sim, network):
        network.send(_msg((1, 1), (1, 1)), lambda m: None)
        sim.run()
        assert network.messages_routed == 0
        assert network.mean_hops() == 0.0


class TestMessageDefaults:
    def test_default_sizes_by_kind(self):
        assert _msg((0, 0), (1, 0)).size_bytes == 16
        data = Message(MessageKind.DATA_RESP, (0, 0), (1, 0))
        assert data.size_bytes == 80

    def test_translation_kind_classification(self):
        assert Message(MessageKind.PTE_PUSH, (0, 0), (1, 0)).is_translation_traffic
        assert not Message(MessageKind.DATA_REQ, (0, 0), (1, 0)).is_translation_traffic


class TestTrafficReport:
    def test_per_kind_accounting(self, sim, network):
        network.send(
            _msg((0, 0), (2, 0), kind=MessageKind.DATA_RESP, size=80),
            lambda m: None,
        )
        network.send(
            _msg((0, 0), (1, 0), kind=MessageKind.TRANSLATION_REQ, size=16),
            lambda m: None,
        )
        sim.run()
        report = network.traffic_report()
        assert report["data_resp"]["messages"] == 1
        assert report["data_resp"]["link_bytes"] == 160  # 80 B x 2 hops
        assert report["translation_req"]["link_bytes"] == 16
        assert report["total"]["messages"] == 2
        assert report["total"]["link_bytes"] == 176

    def test_zero_hop_messages_carry_no_link_bytes(self, sim, network):
        network.send(_msg((1, 1), (1, 1)), lambda m: None)
        sim.run()
        report = network.traffic_report()
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
                message = Message(kind, src, dst, size_bytes=size)
                route, _extra = faults.route(src, dst)
                arrival = sim.now if route else sim.now + 1
                for key in route:
                    arrival = ref_link(key).transmit(
                        arrival, message.size_bytes, kind in TRANSLATION_KINDS
                    )
                sent += 1
                routed += bool(route)
                hops += len(route)
                count, link_bytes = by_kind.get(kind, (0, 0))
                by_kind[kind] = (count + 1, link_bytes + message.size_bytes * len(route))
                expected.append(arrival)
                assert network.send(
                    message, lambda m, i=len(expected) - 1: delivered.append((i, sim.now))
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
