"""Tests for the walker pool."""

import pytest

from repro.obs.profile import HostProfiler
from repro.sim.engine import Simulator
from repro.sim.queueing import WalkerPool


def finishing(pool, done, record=lambda payload, now: now):
    """A handler doing a walk's two pool steps: free the walker first,
    start queued walks last."""

    def handler(payload):
        pool.busy_walkers -= 1
        done.append(record(payload, pool.sim.now))
        pool.dispatch()

    return handler


class TestWalkerPool:
    def test_service_latency(self, sim):
        pool = WalkerPool(sim, "w", 1, 50)
        done = []
        pool.submit("x", finishing(pool, done, lambda p, now: (p, now)))
        sim.run()
        assert done == [("x", 50)]

    def test_parallel_walkers(self, sim):
        pool = WalkerPool(sim, "w", 2, 50)
        done = []
        for item in range(2):
            pool.submit(item, finishing(pool, done))
        sim.run()
        assert done == [50, 50]

    def test_queueing_when_walkers_busy(self, sim):
        pool = WalkerPool(sim, "w", 1, 50)
        done = []
        for item in range(3):
            pool.submit(item, finishing(pool, done))
        sim.run()
        assert done == [50, 100, 150]

    def test_queue_length_and_in_flight(self, sim):
        pool = WalkerPool(sim, "w", 1, 50)
        for item in range(3):
            pool.submit(item, finishing(pool, []))
        assert pool.busy_walkers == 1
        assert pool.queue_length == 2

    def test_drain_vpns_skips_in_service(self, sim):
        class Walk:
            def __init__(self, vpn):
                self.vpn = vpn

        pool = WalkerPool(sim, "w", 1, 50)
        walks = [Walk(vpn) for vpn in (0, 1, 2, 3, 2)]
        for walk in walks:
            pool.submit(walk, finishing(pool, []))
        # The first walk of VPN 0 is already in service and cannot be
        # drained; both queued walks of VPN 2 are, in queue order.
        assert pool.drain_vpns({0, 2}) == [walks[2], walks[4]]
        assert pool.drain_vpns({2}) == []
        assert pool.queue_length == 2
        assert pool.stat("coalesced") == 2

    def test_completion_is_booked_to_its_handler(self):
        # The engine runs the handler bound to its payload, with no pool
        # code in between, so the profiler books each completion to the
        # handler's own row.
        profiler = HostProfiler()
        sim = Simulator(profiler=profiler)
        pool = WalkerPool(sim, "w", 1, 10)
        done = []
        for item in range(3):
            pool.submit(item, finishing(pool, done, lambda p, now: p))
        sim.run()
        assert done == [0, 1, 2]
        assert profiler.counts == {
            (__name__, "finishing.<locals>.handler"): 3,
        }

    def test_completion_can_resubmit(self, sim):
        pool = WalkerPool(sim, "w", 1, 10)
        done = []

        def again(payload):
            pool.busy_walkers -= 1
            done.append(sim.now)
            if len(done) < 3:
                pool.submit(payload, again)
            pool.dispatch()

        pool.submit("x", again)
        sim.run()
        assert done == [10, 20, 30]

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            WalkerPool(sim, "w", 0, 10)
        with pytest.raises(ValueError):
            WalkerPool(sim, "w", 1, -1)
