"""Calendar-queue scheduler equivalence + hot-path timing bugfix tests.

The calendar queue (rotating per-cycle FIFO slots over a heap overflow
tier) must be observationally identical to the classic single binary
heap keyed on ``(time, sequence)``.  The property suite drives both
through the same randomly generated event programs — same-cycle ties,
far-future events past the calendar window, ``max_cycles`` truncation,
and mid-run ``schedule_at`` calls from inside callbacks — and demands
identical firing logs.  Every property runs the calendar simulator in
each instrumentation mode (plain, profiler, sanitizers, race detector,
profiler plus race detector) and through each driver (``run``,
``run_until`` then ``run``, ``step``): they share one dispatch loop, so
none of them may change what fires when.

The regression half pins the timing-math bugfixes that rode along with
the scheduler change: fractional-bandwidth serialisation ceiling,
``schedule_at`` validating before the sanitizer hook mutates state, and
``run_until`` quiescing sanitizers on a genuine drain.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EventOrderError, SimulationError
from repro.noc.link import Link
from repro.noc.messages import MessageKind
from repro.noc.network import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.obs import HostProfiler
from repro.sim.component import Component
from repro.sim.engine import SLOT_COUNT, Simulator
from repro.units import serialization_cycles


# ----------------------------------------------------------------------
# Reference model: the classic single-heap scheduler
# ----------------------------------------------------------------------
class ReferenceHeapSimulator:
    """The pre-calendar design: one heap, ``(time, sequence)`` order."""

    def __init__(self, max_cycles=None):
        self.now = 0
        self.max_cycles = max_cycles
        self.events_processed = 0
        self.dropped_events = 0
        self._queue = []
        self._sequence = 0

    def schedule(self, delay, callback):
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time, callback):
        if time < self.now:
            raise SimulationError("cannot schedule into the past")
        heapq.heappush(self._queue, (int(time), self._sequence, callback))
        self._sequence += 1

    def run(self):
        while self._queue:
            time = self._queue[0][0]
            if self.max_cycles is not None and time > self.max_cycles:
                self.dropped_events = len(self._queue)
                self._queue.clear()
                break
            _, _, callback = heapq.heappop(self._queue)
            self.now = time
            self.events_processed += 1
            callback()
        return self.now


def _run_program(sim, program, driver="run", pause_at=0):
    """Feed a generated event program into ``sim``; return the firing log.

    Each program entry is ``(delay, children)`` where children are
    ``(delay, grandchildren)`` scheduled from inside the parent callback
    via ``schedule_at`` — exercising mid-run scheduling into both the
    calendar window and the overflow tier.  ``driver`` picks how the
    program is run: ``run``, ``run_until(pause_at)`` then ``run``, or
    ``step`` until it returns False.
    """
    log = []

    def fire(tag, children):
        def _callback():
            log.append((sim.now, tag))
            for index, (delay, grandchildren) in enumerate(children):
                sim.schedule_at(sim.now + delay, fire((tag, index), grandchildren))
        return _callback

    for index, (delay, children) in enumerate(program):
        sim.schedule(delay, fire(index, children))
    if driver == "step":
        processed = sim.events_processed
        while sim.step():
            processed += 1
            assert sim.events_processed == processed  # one event per step
        final = sim.now
    else:
        if driver == "run_until":
            assert sim.run_until(pause_at) == pause_at
        final = sim.run()
    return log, final


#: Instrumentation modes as Simulator keyword arguments.  The programs
#: share no simulated state, so the race detector must stay silent.
MODES = {
    "plain": {},
    "profiler": {"profiler": True},
    "sanitize": {"sanitize": True},
    "races": {"sanitize": "races"},
    "profiler+races": {"profiler": True, "sanitize": "races"},
}
DRIVERS = ("run", "run_until", "step")


def _simulator(mode, max_cycles=None):
    kwargs = dict(MODES[mode])
    if kwargs.pop("profiler", False):
        kwargs["profiler"] = HostProfiler()
    return Simulator(max_cycles=max_cycles, **kwargs)


def _run_calendar(program, reference_log, mode, driver, max_cycles=None):
    """Run ``program`` on an instrumented calendar simulator; pause a
    ``run_until`` drive at the cycle of the reference's middle event."""
    sim = _simulator(mode, max_cycles)
    pause_at = reference_log[len(reference_log) // 2][0] if reference_log else 0
    log, final = _run_program(sim, program, driver, pause_at)
    if sim.profiler is not None:
        assert sum(sim.profiler.counts.values()) == sim.events_processed
    assert "__getattribute__" not in vars(Component)
    return sim, log, final


# Delays mixing same-cycle ties, in-window offsets, the exact window
# boundary, and far-future overflow (> SLOT_COUNT cycles ahead).
_DELAYS = st.one_of(
    st.integers(0, 3),
    st.integers(0, 60),
    st.integers(SLOT_COUNT - 2, SLOT_COUNT + 2),
    st.integers(SLOT_COUNT, 5 * SLOT_COUNT),
)
_GRANDCHILDREN = st.lists(st.tuples(_DELAYS, st.just(())), max_size=2)
_CHILDREN = st.lists(st.tuples(_DELAYS, _GRANDCHILDREN), max_size=2)
_PROGRAM = st.lists(st.tuples(_DELAYS, _CHILDREN), min_size=1, max_size=25)


_MODE = st.sampled_from(sorted(MODES))
_DRIVER = st.sampled_from(DRIVERS)


class TestCalendarMatchesReferenceHeap:
    @given(_PROGRAM, _MODE, _DRIVER)
    @settings(max_examples=100, deadline=None)
    def test_same_firing_order_and_final_cycle(self, program, mode, driver):
        ref_log, ref_final = _run_program(ReferenceHeapSimulator(), program)
        _, cal_log, cal_final = _run_calendar(program, ref_log, mode, driver)
        assert cal_log == ref_log
        assert cal_final == ref_final

    @given(_PROGRAM, _MODE, _DRIVER)
    @settings(max_examples=100, deadline=None)
    def test_event_counts_match(self, program, mode, driver):
        reference = ReferenceHeapSimulator()
        ref_log, _ = _run_program(reference, program)
        simulator, _, _ = _run_calendar(program, ref_log, mode, driver)
        assert simulator.events_processed == reference.events_processed
        assert simulator.pending_events == 0

    @given(_PROGRAM, st.integers(0, 3 * SLOT_COUNT), _MODE, _DRIVER)
    @settings(max_examples=100, deadline=None)
    def test_max_cycles_truncation_matches(self, program, max_cycles, mode,
                                           driver):
        reference = ReferenceHeapSimulator(max_cycles=max_cycles)
        ref_log, _ = _run_program(reference, program)
        simulator, cal_log, _ = _run_calendar(
            program, ref_log, mode, driver, max_cycles
        )
        assert cal_log == ref_log
        assert simulator.events_processed == reference.events_processed
        assert simulator.dropped_events == reference.dropped_events
        assert simulator.pending_events == 0

    def test_overflow_events_interleave_with_window_events(self):
        """A far-future event and a later direct schedule into the same
        cycle must fire in schedule order (overflow drains first)."""
        sim = Simulator()
        fired = []
        target = 2 * SLOT_COUNT + 5
        sim.schedule_at(target, lambda: fired.append("overflow-first"))
        # Step the window forward, then schedule the same cycle directly.
        sim.schedule(1, lambda: sim.schedule_at(target, lambda: fired.append("direct-second")))
        sim.run()
        assert fired == ["overflow-first", "direct-second"]


# ----------------------------------------------------------------------
# Bugfix regressions
# ----------------------------------------------------------------------
class TestFractionalBandwidthSerialization:
    def test_sub_byte_per_cycle_bandwidth_ceils_up(self):
        # A degraded divisor below 1 B/cycle must slow serialisation;
        # truncating it to int would floor back to the healthy rate.
        assert serialization_cycles(8, 0.5) == 16
        assert serialization_cycles(1, 0.1) == 10

    def test_fractional_bandwidth_above_one_still_ceils(self):
        assert serialization_cycles(8, 0.9) == 9
        assert serialization_cycles(10, 3.0) == 4

    def test_degraded_one_byte_link_queues_slower(self):
        healthy = Link((0, 0), (1, 0), latency=4, bytes_per_cycle=1.0)
        degraded = Link((0, 0), (1, 0), latency=4, bytes_per_cycle=1.0)
        degraded.bandwidth_factor = 1 / 16
        assert healthy.serialization(32) == 32
        assert degraded.serialization(32) == 512
        # The second message queues behind the first: the fail-slow link
        # delivers it measurably later than the healthy one.
        deliveries = []
        for factor in (1.0, 1 / 16):
            network = MeshNetwork(
                Simulator(), MeshTopology(2, 1), link_latency=4,
                link_bandwidth_bytes_per_sec=1e9,
            )
            network.set_link_bandwidth_factor((0, 0), (1, 0), factor)
            network.attach((1, 0), {MessageKind.DATA_REQ: lambda payload: None})
            for _ in range(2):
                delivery = network.send(
                    MessageKind.DATA_REQ, (0, 0), (1, 0), size_bytes=32
                )
            deliveries.append(delivery)
        assert deliveries == [32 + 4, 512 + 4]

    def test_bandwidth_factor_change_invalidates_serialization_cache(self):
        link = Link((0, 0), (1, 0), latency=1, bytes_per_cycle=2.0)
        assert link.serialization(64) == 32
        link.bandwidth_factor = 0.5
        assert link.serialization(64) == 64
        link.bandwidth_factor = 1.0
        assert link.serialization(64) == 32


class TestRunUntilPauseKeepsWindowBehindNow:
    """A paused ``run_until`` must not slide the calendar window to the
    next pending cycle: an event scheduled before it would alias to a
    slot a whole window later."""

    def test_event_scheduled_after_pause_fires_in_its_own_cycle(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3, lambda: fired.append(("later", sim.now)))
        sim.run_until(1)
        sim.schedule_at(2, lambda: fired.append(("sooner", sim.now)))
        sim.run()
        assert fired == [("sooner", 2), ("later", 3)]

    def test_overflow_event_does_not_pull_window_past_pause(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5 * SLOT_COUNT, lambda: fired.append(sim.now))
        sim.run_until(1)
        sim.schedule_at(2, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2, 5 * SLOT_COUNT]


class TestScheduleAtValidatesBeforeSanitizerHook:
    def test_rejected_schedule_leaves_sanitizer_state_untouched(self):
        sim = Simulator(sanitize=True)
        sim.schedule(5, lambda: None)
        sim.run()
        checked_before = sim.sanitizer.event_order.schedules_checked
        with pytest.raises(EventOrderError):
            sim.schedule_at(sim.now - 1, lambda: None)
        assert sim.sanitizer.event_order.schedules_checked == checked_before

    def test_unsanitized_past_schedule_still_raises(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(sim.now - 1, lambda: None)


class TestRunUntilQuiesce:
    def test_genuine_drain_runs_quiesce_checks(self):
        sim = Simulator(sanitize=True)
        sim.schedule(3, lambda: None)
        sim.run_until(10)
        assert sim.sanitizer.quiesce_checks_run == 1

    def test_no_quiesce_while_events_remain(self):
        sim = Simulator(sanitize=True)
        sim.schedule(3, lambda: None)
        sim.schedule(50, lambda: None)
        sim.run_until(10)
        assert sim.sanitizer.quiesce_checks_run == 0

    def test_run_matches_run_until_quiesce_behaviour(self):
        sim = Simulator(sanitize=True)
        sim.schedule(3, lambda: None)
        sim.run()
        assert sim.sanitizer.quiesce_checks_run == 1
