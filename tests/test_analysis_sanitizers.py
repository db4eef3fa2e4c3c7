"""Runtime-sanitizer tests: each sanitizer must fire on a violating input
and stay silent on a clean run."""

import heapq
import os
import subprocess
import sys
from collections import deque

import pytest

from repro.analysis.sanitizers import check_determinism, result_digest
from repro.config.system import SystemConfig
from repro.errors import (
    BufferLeakError,
    ConservationError,
    DeterminismError,
    EventOrderError,
    SanitizerError,
)
from repro.noc.messages import MessageKind
from repro.noc.network import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.sim.engine import Simulator
from repro.sim.queueing import WalkerPool
from repro.system.runner import run_benchmark


def send_message(network, src, dst, size=64):
    return network.send(MessageKind.TRANSLATION_REQ, src, dst, size_bytes=size)


# ----------------------------------------------------------------------
# EventOrderSanitizer
# ----------------------------------------------------------------------
class TestEventOrder:
    def test_schedule_in_past_raises_typed_error(self):
        sim = Simulator(sanitize=True)
        sim.schedule(10, lambda: None)
        sim.step()
        assert sim.now == 10
        with pytest.raises(EventOrderError):
            sim.schedule_at(5, lambda: None)

    def test_direct_heap_corruption_caught_on_pop(self):
        # A buggy component that bypasses schedule_at and pushes a stale
        # timestamp straight into the heap is caught by the monotonicity
        # check the moment the event pops.
        sim = Simulator(sanitize=True)

        def corrupt():
            heapq.heappush(sim._queue, (3, 10_000, lambda: None))

        sim.schedule(10, corrupt)
        with pytest.raises(EventOrderError, match="monotonicity"):
            sim.run()

    def test_unsanitized_simulator_keeps_legacy_behaviour(self):
        sim = Simulator()
        assert sim.sanitizer is None
        sim.schedule(1, lambda: None)
        assert sim.run() == 1


# ----------------------------------------------------------------------
# BufferLeakSanitizer
# ----------------------------------------------------------------------
class TestBufferLeak:
    def _toy_queue(self, sim):
        queue = deque()
        sim.sanitizer.watch_buffer("toy_buffer", queue.__len__)
        return queue

    def test_leaked_entry_raises_at_quiesce(self):
        sim = Simulator(sanitize=True)
        self._toy_queue(sim).append("stuck")
        sim.schedule(5, lambda: None)
        with pytest.raises(BufferLeakError, match="toy_buffer holds 1"):
            sim.run()

    def test_drained_buffer_is_clean(self):
        sim = Simulator(sanitize=True)
        queue = self._toy_queue(sim)
        queue.append("transient")
        sim.schedule(5, queue.popleft)
        sim.run()
        assert sim.sanitizer.report()["buffers_watched"] == 1

    def test_truncated_run_skips_quiesce_checks(self):
        # Truncation legitimately strands buffer entries; the leak check
        # must not fire for a run cut off at max_cycles.
        sim = Simulator(max_cycles=3, sanitize=True)
        queue = self._toy_queue(sim)
        queue.append("stranded")
        sim.schedule(10, queue.popleft)
        sim.run()
        assert sim.truncated

    def test_stranded_walk_names_the_pool(self):
        # A handler that never frees its walker strands it in service,
        # and the walk queued behind it never starts: both count.
        sim = Simulator(sanitize=True)
        pool = WalkerPool(sim, "toy.walkers", 1, 10)
        for item in range(2):
            pool.submit(item, lambda payload: None)
        with pytest.raises(BufferLeakError, match="toy.walkers holds 2"):
            sim.run()

    def test_released_walks_are_clean(self):
        sim = Simulator(sanitize=True)
        pool = WalkerPool(sim, "toy.walkers", 1, 10)

        def handler(payload):
            pool.busy_walkers -= 1
            pool.dispatch()

        for item in range(2):
            pool.submit(item, handler)
        sim.run()
        assert sim.now == 20
        assert sim.sanitizer.report()["buffers_watched"] == 1


# ----------------------------------------------------------------------
# ConservationSanitizer
# ----------------------------------------------------------------------
class TestConservation:
    def _network(self, sim):
        network = MeshNetwork(sim, MeshTopology(3, 3))
        network.attach((1, 0), {MessageKind.TRANSLATION_REQ: lambda payload: None})
        return network

    def test_byte_count_mismatch_raises(self):
        sim = Simulator(sanitize=True)
        network = self._network(sim)
        send_message(network, (0, 0), (1, 0))
        # A toy component corrupts the link's byte counter out of band.
        link = network._links[((0, 0), (1, 0))]
        link.bytes_carried += 7
        with pytest.raises(ConservationError, match="drifted"):
            sim.run()

    def test_undelivered_message_raises(self):
        sim = Simulator(sanitize=True)
        network = self._network(sim)
        send_message(network, (0, 0), (1, 0))
        # Simulate a lost delivery: the one-hop delivery sits in a
        # calendar slot, not the overflow heap; drop it there, so the run
        # drains with the message still on the ledger.
        slot = next(slot for slot in sim._slots if slot)
        slot.pop()
        sim._ring_events -= 1
        assert sim.pending_events == 0
        with pytest.raises(ConservationError, match="in flight"):
            sim.run()

    def test_clean_traffic_passes(self):
        sim = Simulator(sanitize=True)
        network = self._network(sim)
        send_message(network, (0, 0), (1, 0))
        send_message(network, (0, 0), (1, 0), size=256)
        sim.run()
        report = sim.sanitizer.report()
        assert report["messages_delivered"] == 2
        assert report["quiesce_checks_run"] == 1


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_dual_run_mismatch_raises(self):
        class WobblyResult:
            def __init__(self, value):
                self.value = value

            def to_dict(self):
                return {"value": self.value}

        calls = []

        def wobbly_run(config, workload, **kwargs):
            calls.append(workload)
            return WobblyResult(len(calls))  # differs every run

        with pytest.raises(DeterminismError, match="diverged"):
            check_determinism(
                SystemConfig(mesh_width=3, mesh_height=3),
                "fir",
                run_fn=wobbly_run,
            )
        assert len(calls) == 2

    def test_real_small_run_is_deterministic(self):
        digest = check_determinism(
            SystemConfig(mesh_width=3, mesh_height=3), "fir",
            scale=0.02, seed=7,
        )
        assert len(digest) == 64

    def test_result_digest_is_canonical(self):
        assert result_digest({"b": 1, "a": 2}) == result_digest({"a": 2, "b": 1})
        assert result_digest({"a": 1}) != result_digest({"a": 2})


# ----------------------------------------------------------------------
# End-to-end: a sanitized preset run is clean
# ----------------------------------------------------------------------
class TestSanitizedRun:
    def test_small_preset_runs_clean(self):
        result = run_benchmark(
            SystemConfig(mesh_width=5, mesh_height=5), "fir",
            scale=0.05, seed=42, sanitize=True,
        )
        report = result.extras["sanitizers"]
        assert report["violations"] == 0
        assert report["events_checked"] > 0
        assert report["messages_delivered"] > 0
        # The IOMMU pre-queue, its walkers and each of the 24 GMMUs.
        assert report["buffers_watched"] == 2 + 24
        assert report["quiesce_checks_run"] == 1

    def test_all_sanitizer_errors_are_typed(self):
        for error in (EventOrderError, ConservationError, BufferLeakError,
                      DeterminismError):
            assert issubclass(error, SanitizerError)


# ----------------------------------------------------------------------
# Import cost
# ----------------------------------------------------------------------
def test_run_and_sanitizer_imports_leave_the_lint_machinery_unloaded():
    """A run, a result digest and a sanitized run import only what they
    use: ``repro.analysis`` re-exports nothing, so the static lint and
    race analysers stay out of the process."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(repo_root, "src"))
    probe = (
        "import sys\n"
        "import repro.system.runner, repro.analysis.sanitizers\n"
        "print(sorted(name for name in ('repro.analysis.lint',"
        " 'repro.analysis.rules', 'repro.analysis.races')"
        " if name in sys.modules))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True,
    )
    assert completed.stdout.strip() == "[]"
