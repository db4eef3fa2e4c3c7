"""Trace-driven issue engine standing in for a GPM's compute units.

A GPM's CUs are modelled in aggregate: the engine issues memory accesses
from the GPM's trace slice at up to ``burst`` accesses every ``interval``
cycles, with at most ``max_outstanding`` in flight (CU count x per-CU
memory-level parallelism).  Compute-bound workloads (AES) use a wide
interval; memory-streaming ones issue every cycle.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.engine import Simulator

IssueFn = Callable[[int], None]


class TraceDriver:
    """Feeds one GPM's access trace into the memory system."""

    def __init__(
        self,
        sim: Simulator,
        issue_fn: IssueFn,
        max_outstanding: int,
        burst: int = 4,
        interval: int = 1,
    ) -> None:
        if max_outstanding <= 0 or burst <= 0 or interval <= 0:
            raise ValueError("driver parameters must be positive")
        self.sim = sim
        self.issue_fn = issue_fn
        self.max_outstanding = max_outstanding
        self.burst = burst
        self.interval = interval
        self.trace: List[int] = []
        self.position = 0
        self.outstanding = 0
        self._tick_scheduled = False
        self.on_drain: Optional[Callable[[], None]] = None
        #: A halted driver issues nothing; set by GPM.halt()/resume()
        #: when the fault timeline kills/recovers the module.
        self.halted = False

    # ------------------------------------------------------------------
    def load(self, trace: List[int]) -> None:
        self.trace = trace
        self.position = 0

    def start(self) -> None:
        if self.trace:
            self._schedule_tick(0)
        elif self.on_drain is not None:
            self.on_drain()

    @property
    def trace_exhausted(self) -> bool:
        return self.position >= len(self.trace)

    @property
    def drained(self) -> bool:
        return self.trace_exhausted and self.outstanding == 0

    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Stop issuing; the remaining trace stays loaded for resume()."""
        self.halted = True

    def resume(self) -> None:
        """Pick the trace back up after a mid-run recovery."""
        self.halted = False
        if not self.trace_exhausted:
            self._schedule_tick(0)

    def abandon(self, count: int) -> None:
        """Drop ``count`` in-flight accesses without completing them (the
        issuing module died) and rewind the trace cursor by as many
        positions: the lost work is *re-issued* after a resume(), the
        checkpoint-restart semantics a drained-and-recovered module needs.
        Never fires on_drain."""
        self.outstanding -= count
        self.position = max(0, self.position - count)

    # ------------------------------------------------------------------
    def complete_one(self) -> None:
        """An in-flight access finished; free its slot and keep issuing.

        Runs once per access, so :attr:`trace_exhausted` and
        :attr:`drained` are spelled out inline.
        """
        self.outstanding -= 1
        if self.position < len(self.trace):
            self._schedule_tick(0)
        elif not self.outstanding and self.on_drain is not None:
            self.on_drain()

    # ------------------------------------------------------------------
    def _schedule_tick(self, delay: int) -> None:
        if self._tick_scheduled or self.halted:
            return
        self._tick_scheduled = True
        self.sim.schedule(delay, self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        trace = self.trace
        end = len(trace)
        issue_fn = self.issue_fn
        max_outstanding = self.max_outstanding
        issued_now = 0
        # The counters are re-read every iteration: issue_fn may complete
        # an access (complete_one) before returning.
        while (
            self.position < end
            and self.outstanding < max_outstanding
            and issued_now < self.burst
        ):
            vaddr = trace[self.position]
            self.position += 1
            self.outstanding += 1
            issued_now += 1
            issue_fn(vaddr)
        if self.position < end and self.outstanding < max_outstanding:
            self._schedule_tick(self.interval)
        # Otherwise issuing resumes from complete_one().
