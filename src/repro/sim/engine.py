"""The discrete-event simulator core.

A :class:`Simulator` owns a *calendar queue*: a rotating array of
per-cycle FIFO slots for near-future events (the overwhelmingly common
case — link serialisation, TLB latencies, and fixed walk delays are all
small integer deltas) backed by a binary-heap overflow tier for events
scheduled past the calendar window.  Time is an integer cycle count.

Ordering is byte-identical to the classic single-heap design keyed on
``(time, sequence)``: slot appends preserve schedule order within a
cycle, and overflow events migrate into the window in ``(time,
sequence)`` heap order *before* any same-cycle event can be scheduled
directly (a cycle only becomes schedulable-in-window after its overflow
events have drained).  Every determinism digest is therefore unchanged.

Dispatch is *batched*: one routine drains a whole cycle slot for
:meth:`run`, :meth:`run_until` and :meth:`step`.  An attached profiler,
event-order sanitizer and race detector are composed once per run into
:class:`_DispatchHooks`, the only place host wall time is read; without
them the loop pays one ``is None`` test per event.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from time import perf_counter  # lint: allow-wallclock (host profiler only)
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple, Union

from repro.errors import EventOrderError, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizers import SanitizerContext

Callback = Callable[[], None]

#: Calendar window size in cycles (power of two so slot indexing is a
#: mask).  Events scheduled further ahead than this go to the overflow
#: heap and migrate into the window as it slides — correctness never
#: depends on the window size, only the near-future fast path does.
SLOT_COUNT = 1024
_SLOT_MASK = SLOT_COUNT - 1

#: ``sanitize=`` values -> race-detector mode (None: detector off).
_RACE_MODES = {True: None, "races": "raise", "races:report": "report"}


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause automatic cyclic GC for the block, then restore the caller's
    GC state (a caller that had GC disabled keeps it disabled).

    A simulation allocates heavily enough to trigger hundreds of
    generation-0 collections per run and, across a sweep worker's jobs,
    repeated full ones, each scanning the live heap; most simulation
    objects are freed by refcount anyway, and the rest (the wafer's
    reference cycles) are collected once GC resumes.  Pausing is
    behaviour-neutral: it changes no event order and no digest.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Simulator:
    """Integer-cycle discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(10, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [10]
    """

    __slots__ = (
        "now",
        "max_cycles",
        "_slots",
        "_ring_base",
        "_ring_events",
        "_queue",
        "_sequence",
        "_events_processed",
        "_dropped_events",
        "_running",
        "profiler",
        "sanitizer",
    )

    def __init__(
        self,
        max_cycles: Optional[int] = None,
        profiler=None,
        sanitize: Union[bool, str] = False,
    ) -> None:
        self.now: int = 0
        self.max_cycles = max_cycles
        #: Calendar slots: ``_slots[t & _SLOT_MASK]`` holds the callbacks
        #: for cycle ``t`` while ``t`` is inside the window
        #: ``[_ring_base, _ring_base + SLOT_COUNT)``.  Appends preserve
        #: schedule order, which is exactly the old heap's sequence order.
        self._slots: List[List[Callback]] = [[] for _ in range(SLOT_COUNT)]
        #: Lowest cycle the calendar window currently covers; advances
        #: monotonically (always together with an overflow drain, so the
        #: window invariant holds).
        self._ring_base = 0
        #: Number of events currently stored in the calendar slots.
        self._ring_events = 0
        #: Overflow tier for events beyond the window, keyed on
        #: ``(time, sequence)``.  Kept under the historical ``_queue``
        #: name: sanitizer tests inject corruption here, and the event
        #: order sanitizer still catches a stale timestamp on dispatch.
        self._queue: List[Tuple[int, int, Callback]] = []
        self._sequence = 0
        self._events_processed = 0
        self._dropped_events = 0
        self._running = False
        #: Optional host wall-clock profiler
        #: (:class:`repro.obs.profile.HostProfiler`).  When attached, every
        #: dispatched callback, the sanitizer hooks and the whole
        #: :meth:`run` wall are timed and booked to it.
        self.profiler = profiler
        #: Runtime sanitizers (:class:`repro.analysis.sanitizers.SanitizerContext`).
        #: Components discover it via ``sim.sanitizer`` and register their
        #: invariants; None when sanitizing is off (the default).
        #: ``sanitize="races"`` additionally arms the same-cycle race
        #: detector for the duration of :meth:`run`; ``"races:report"``
        #: collects race findings instead of raising on the first one.
        self.sanitizer: Optional["SanitizerContext"] = None
        if sanitize:
            if sanitize not in _RACE_MODES:
                raise SimulationError(
                    f"unknown sanitize mode {sanitize!r}: expected "
                    f"True, 'races' or 'races:report'"
                )
            from repro.analysis.sanitizers import SanitizerContext

            self.sanitizer = SanitizerContext(races=_RACE_MODES[sanitize])

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callback) -> None:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + int(delay)
        if self.sanitizer is not None:
            self.sanitizer.event_order.on_schedule(time, self.now)
        if time - self._ring_base < SLOT_COUNT:
            self._slots[time & _SLOT_MASK].append(callback)
            self._ring_events += 1
        else:
            heapq.heappush(self._queue, (time, self._sequence, callback))
            self._sequence += 1

    def schedule_at(self, time: int, callback: Callback) -> None:
        """Schedule ``callback`` to fire at absolute cycle ``time``."""
        # Validate before any sanitizer hook runs: a rejected schedule
        # must not mutate sanitizer state (a stale schedules_checked
        # counter would misreport later, legitimate checks).
        if time < self.now:
            if self.sanitizer is not None:
                raise EventOrderError(
                    f"event scheduled in the past: target cycle {time} < "
                    f"current cycle {self.now}"
                )
            raise SimulationError(
                f"cannot schedule at cycle {time}, current cycle is {self.now}"
            )
        if self.sanitizer is not None:
            self.sanitizer.event_order.on_schedule(time, self.now)
        time = int(time)
        if time - self._ring_base < SLOT_COUNT:
            self._slots[time & _SLOT_MASK].append(callback)
            self._ring_events += 1
        else:
            heapq.heappush(self._queue, (time, self._sequence, callback))
            self._sequence += 1

    # ------------------------------------------------------------------
    # Calendar mechanics
    # ------------------------------------------------------------------
    def _drain_overflow(self) -> None:
        """Migrate overflow events now inside the window into their slots.

        Called whenever ``_ring_base`` advances.  Heap pops come out in
        ``(time, sequence)`` order, so per-slot append order stays the
        global schedule order; any event scheduled directly into these
        cycles afterwards appends later, which is also schedule order.
        """
        overflow = self._queue
        limit = self._ring_base + SLOT_COUNT
        slots = self._slots
        pop = heapq.heappop
        while overflow and overflow[0][0] < limit:
            time, _seq, callback = pop(overflow)
            slots[time & _SLOT_MASK].append(callback)
            self._ring_events += 1

    def _advance(self, limit: Optional[int] = None) -> Optional[int]:
        """Slide the window to the next non-empty cycle; return it.

        Returns None when no events remain anywhere, or none at or before
        ``limit``; the window then never slides past ``limit``, so a
        paused ``run_until`` leaves it behind ``now`` and an event
        scheduled before the next pending one lands in its own cycle.
        Idempotent: when the current ``_ring_base`` slot is already
        non-empty it returns immediately, so peek-then-dispatch costs one
        extra check only.
        """
        if not self._ring_events:
            overflow = self._queue
            if not overflow or (limit is not None and overflow[0][0] > limit):
                return None
            # Jump the window straight to the earliest far-future event.
            self._ring_base = overflow[0][0]
            self._drain_overflow()
        slots = self._slots
        base = self._ring_base
        if slots[base & _SLOT_MASK]:
            return base if limit is None or base <= limit else None
        overflow = self._queue
        next_overflow = overflow[0][0] if overflow else -1
        while True:
            base += 1
            if limit is not None and base > limit:
                return None
            if next_overflow >= 0 and next_overflow - base < SLOT_COUNT:
                self._ring_base = base
                self._drain_overflow()
                next_overflow = overflow[0][0] if overflow else -1
            if slots[base & _SLOT_MASK]:
                self._ring_base = base
                return base

    def _truncate(self) -> None:
        """Hit ``max_cycles``: drop every still-pending event."""
        self._dropped_events += self._ring_events + len(self._queue)
        for slot in self._slots:
            if slot:
                slot.clear()
        self._queue.clear()
        self._ring_events = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _hooks(self) -> Optional["_DispatchHooks"]:
        """Everything attached, composed; None for the plain loop."""
        if self.sanitizer is None and self.profiler is None:
            return None
        return _DispatchHooks(self.sanitizer, self.profiler)

    def _dispatch_batch(
        self, hooks: Optional["_DispatchHooks"], single: bool = False
    ) -> bool:
        """Drain the next cycle slot, or only its first event when
        ``single``.  False when the queue is empty or the run truncates.

        Callbacks may append same-cycle events to this very slot; the
        list iterator re-checks bounds on every step, so they are picked
        up in schedule order.  The in-flight event is uncounted from
        pending_events *before* its callback runs, matching the old
        pop-then-dispatch view (self-rescheduling tickers probe it to
        decide termination).
        """
        # Inline _advance's fast path: the current base slot is usually
        # already the next non-empty cycle (event clusters share cycles).
        time = self._ring_base
        slot = self._slots[time & _SLOT_MASK]
        if not slot:
            time = self._advance()
            if time is None:
                return False
            slot = self._slots[time & _SLOT_MASK]
        # A truncated cycle is past max_cycles, hence past every cycle
        # already dispatched: checking it before the sanitizer hooks can
        # never hide a monotonicity violation.
        if self.max_cycles is not None and time > self.max_cycles:
            self._truncate()
            return False
        call = None
        if hooks is not None:
            hooks.batch_start(time)
            call = hooks.call
        self.now = time
        index = 0
        try:
            for callback in slot[:1] if single else slot:
                index += 1
                self._ring_events -= 1
                if call is None:
                    callback()
                else:
                    call(callback)
        finally:
            del slot[:index]
            self._events_processed += index
            if hooks is not None:
                hooks.batch_end(index)
        return True

    def step(self) -> bool:
        """Process the next single event.  Returns False when the queue
        is empty.

        Hitting ``max_cycles`` discards the pending event and everything
        still queued; the count of discarded events is recorded in
        :attr:`dropped_events` so callers can tell a drained run from a
        truncated one (see :attr:`truncated`).  Under ``sanitize="races"``
        the detector stays armed from the first step until one returns
        False (after scanning the last cycle) or raises.
        """
        hooks = self._hooks()
        races = hooks.races if hooks is not None else None
        if races is None:
            return self._dispatch_batch(hooks, single=True)
        races.arm()
        try:
            if self._dispatch_batch(hooks, single=True):
                return True
            hooks.flush()  # type: ignore[union-attr]
        except BaseException:
            races.disarm()
            raise
        races.disarm()
        return False

    def run(self) -> int:
        """Run until the event queue drains; returns the final cycle."""
        return self.run_until(None)

    def run_until(self, time: Optional[int]) -> int:
        """Run until cycle ``time`` (inclusive) or until the queue drains
        (``time=None``); returns the final cycle.

        Automatic cyclic GC is paused for the duration of the loop
        (:func:`gc_paused`); ``run_benchmark`` pauses it for the whole
        run, build and collection included.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        hooks = self._hooks()
        races = hooks.races if hooks is not None else None
        started = perf_counter()
        try:
            with gc_paused():
                if races is not None:
                    races.arm()
                if time is None:
                    while self._dispatch_batch(hooks):
                        pass
                else:
                    while self._advance(time) is not None:
                        self._dispatch_batch(hooks)
                    self.now = max(self.now, time)
                if races is not None:
                    hooks.flush()  # type: ignore[union-attr]
        finally:
            self._running = False
            if races is not None:
                races.disarm()
            if self.profiler is not None:
                self.profiler.add_run(perf_counter() - started)
        # Quiesce checks only make sense for a drained (not truncated) run:
        # truncation legitimately strands messages and buffer entries.
        if self.sanitizer is not None and not self.pending_events and not self.truncated:
            self.sanitizer.at_quiesce()
        return self.now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        return self._ring_events + len(self._queue)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def dropped_events(self) -> int:
        """Events discarded because they were scheduled past ``max_cycles``."""
        return self._dropped_events

    @property
    def truncated(self) -> bool:
        """True when the run was cut off rather than drained."""
        return self._dropped_events > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulator(now={self.now}, pending={self.pending_events}, "
                f"processed={self.events_processed}, dropped={self.dropped_events})")


def _clock(fn: Callable, *args) -> float:
    """Host seconds ``fn(*args)`` took: the profiler's only probe."""
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


class _DispatchHooks:
    """The attached profiler and sanitizers, composed for one run.

    ``batch_start``/``batch_end`` bracket every dispatched slot (a step
    is a slot of one).  ``call`` runs one event; it is None unless the
    profiler or race detector must see each event.  A profiler gets each
    event's wall under its callback, and the event-order checks plus the
    race detector's cycle-close scan (run when the next cycle opens, or
    at the final flush) under its sanitize row.
    """

    __slots__ = ("order", "races", "profiler", "call")

    def __init__(self, sanitizer, profiler) -> None:
        self.order = sanitizer.event_order if sanitizer is not None else None
        self.races = sanitizer.races if sanitizer is not None else None
        self.profiler = profiler
        self.call = self._raced if self.races is not None else None
        if profiler is not None:
            self.call = self._timed if self.races is None else self._timed_raced

    def _raced(self, callback: Callback) -> None:
        self.races.begin_event(callback)  # type: ignore[union-attr]
        try:
            callback()
        finally:
            self.races.end_event()  # type: ignore[union-attr]

    def _timed(self, callback: Callback) -> None:
        self.profiler.record(callback, _clock(callback))

    def _timed_raced(self, callback: Callback) -> None:
        self.profiler.record(callback, _clock(self._raced, callback))

    def _sanitize(self, fn: Callable, *args) -> None:
        if self.profiler is None:
            fn(*args)
        else:
            self.profiler.add_sanitize(_clock(fn, *args))

    def _open_cycle(self, time: int) -> None:
        self.order.on_batch_start(time)  # type: ignore[union-attr]
        if self.races is not None:
            # Closes (and scans) the previous cycle when time moved on.
            self.races.begin_cycle(time)

    def batch_start(self, time: int) -> None:
        if self.order is not None:
            self._sanitize(self._open_cycle, time)

    def batch_end(self, count: int) -> None:
        if self.order is not None:
            self._sanitize(self.order.on_batch_end, count)

    def flush(self) -> None:
        """Scan the last open cycle (race detector only)."""
        self._sanitize(self.races.flush)  # type: ignore[union-attr]
