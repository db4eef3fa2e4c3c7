"""Queueing structures: finite buffers and fixed-latency server pools.

These model the two structures the paper's bottleneck analysis rests on: the
IOMMU's request buffer (whose occupancy is Figure 4) and its pool of page
table walkers (whose queueing delay dominates Figure 3).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import CapacityError
from repro.sim.component import Component
from repro.sim.engine import Simulator

CompletionFn = Callable[[Any, "ServiceRecord"], None]


class ServiceRecord:
    """Timing record attached to every item that passes through a pool."""

    __slots__ = ("enqueued_at", "started_at", "completed_at")

    def __init__(self, enqueued_at: int) -> None:
        self.enqueued_at = enqueued_at
        self.started_at: int = -1
        self.completed_at: int = -1

    @property
    def queue_delay(self) -> int:
        return self.started_at - self.enqueued_at

    @property
    def service_time(self) -> int:
        return self.completed_at - self.started_at

    @property
    def total_time(self) -> int:
        return self.completed_at - self.enqueued_at


class FiniteBuffer(Component):
    """A bounded FIFO buffer with occupancy accounting.

    ``push`` raises :class:`CapacityError` when full; callers that want
    backpressure use :meth:`try_push`.  Peak and time-weighted occupancy are
    tracked so experiments can report buffer pressure.
    """

    def __init__(self, sim: Simulator, name: str, capacity: int) -> None:
        super().__init__(sim, name)
        if capacity <= 0:
            raise ValueError(f"buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self.peak_occupancy = 0
        self._area = 0  # time-weighted occupancy integral
        self._last_change = 0
        sanitizer = getattr(sim, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.watch_buffer(self)

    def _account(self) -> None:
        now = self.sim.now
        self._area += len(self._items) * (now - self._last_change)
        self._last_change = now

    def try_push(self, item: Any) -> bool:
        if len(self._items) >= self.capacity:
            self.bump("rejected")
            return False
        self._account()
        self._items.append(item)
        self.bump("pushed")
        if len(self._items) > self.peak_occupancy:
            self.peak_occupancy = len(self._items)
        return True

    def push(self, item: Any) -> None:
        if not self.try_push(item):
            raise CapacityError(f"{self.name}: buffer full (capacity={self.capacity})")

    def pop(self) -> Any:
        if not self._items:
            raise IndexError(f"{self.name}: pop from empty buffer")
        self._account()
        self.bump("popped")
        return self._items.popleft()

    def drain_matching(self, predicate: Callable[[Any], bool]) -> List[Any]:
        """Remove and return every queued item satisfying ``predicate``."""
        self._account()
        kept: Deque[Any] = deque()
        removed: List[Any] = []
        for item in self._items:
            (removed if predicate(item) else kept).append(item)
        self._items = kept
        return removed

    def mean_occupancy(self) -> float:
        """Time-weighted mean occupancy up to the current cycle."""
        self._account()
        return self._area / self.sim.now if self.sim.now else 0.0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return True

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity


class WalkerPool(Component):
    """A pool of identical fixed-latency servers fed by a FIFO queue.

    Models page table walkers: ``num_walkers`` concurrent walks, each taking
    ``service_cycles``.  Completion callbacks receive the payload and its
    :class:`ServiceRecord`.  The internal queue is unbounded; bounded front
    buffers are composed externally (see :class:`repro.iommu.iommu.IOMMU`).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_walkers: int,
        service_cycles: int,
    ) -> None:
        super().__init__(sim, name)
        if num_walkers <= 0:
            raise ValueError(f"num_walkers must be positive, got {num_walkers}")
        if service_cycles < 0:
            raise ValueError(f"service_cycles must be >= 0, got {service_cycles}")
        self.num_walkers = num_walkers
        self.service_cycles = service_cycles
        self.busy_walkers = 0
        self._queue: Deque[Tuple[Any, ServiceRecord, CompletionFn]] = deque()
        #: VPN -> number of queued (not yet started) payloads carrying it.
        #: Lets :meth:`drain_vpns` answer the common "nothing matches" case
        #: with a dict probe instead of a full queue scan; payloads without
        #: a ``vpn`` attribute (e.g. bare ints in GMMU pools) are not
        #: indexed and must use :meth:`drain_matching` directly.
        self._queued_vpn_counts: dict = {}
        self.total_queue_delay = 0
        self.total_service_time = 0
        self.completed = 0
        self.on_idle: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    def submit(self, payload: Any, on_complete: CompletionFn) -> ServiceRecord:
        """Enqueue a walk request; returns its timing record."""
        record = ServiceRecord(self.sim.now)
        self._queue.append((payload, record, on_complete))
        vpn = getattr(payload, "vpn", None)
        if vpn is not None:
            counts = self._queued_vpn_counts
            counts[vpn] = counts.get(vpn, 0) + 1
        self.bump("submitted")
        self._dispatch()
        return record

    def _unindex(self, payload: Any) -> None:
        """Drop one queued-VPN count for a payload leaving the queue."""
        vpn = getattr(payload, "vpn", None)
        if vpn is not None:
            counts = self._queued_vpn_counts
            remaining = counts.get(vpn, 0) - 1
            if remaining > 0:
                counts[vpn] = remaining
            else:
                counts.pop(vpn, None)

    def drain_matching(self, predicate: Callable[[Any], bool]) -> List[Any]:
        """Remove queued (not yet started) payloads matching ``predicate``.

        Used by the PW-queue revisit mechanism: when a walk for VPN *N*
        completes, identical pending requests are answered without their own
        walks.  Returns the removed payloads; their completion callbacks are
        NOT invoked — the caller answers them directly.

        This runs on *every* walk completion and usually matches nothing,
        so the replacement deque is only built once a match is found.
        """
        queue = self._queue
        kept: Optional[Deque[Tuple[Any, ServiceRecord, CompletionFn]]] = None
        removed: List[Any] = []
        index = 0
        for entry in queue:
            if predicate(entry[0]):
                if kept is None:
                    kept = deque(itertools.islice(queue, index))
                removed.append(entry[0])
                self._unindex(entry[0])
                self.bump("coalesced")
            elif kept is not None:
                kept.append(entry)
            index += 1
        if kept is not None:
            self._queue = kept
        return removed

    def drain_vpns(self, vpns) -> List[Any]:
        """:meth:`drain_matching` for payloads whose ``vpn`` is in ``vpns``.

        The queued-VPN index answers the usual no-match case without
        touching the queue at all.
        """
        counts = self._queued_vpn_counts
        if not any(vpn in counts for vpn in vpns):
            return []
        return self.drain_matching(lambda payload: payload.vpn in vpns)

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        while self._queue and self.busy_walkers < self.num_walkers:
            payload, record, on_complete = self._queue.popleft()
            self._unindex(payload)
            record.started_at = self.sim.now
            self.total_queue_delay += record.queue_delay
            self.busy_walkers += 1
            self.sim.schedule(
                self.service_cycles,
                lambda p=payload, r=record, f=on_complete: self._finish(p, r, f),
            )

    def _finish(self, payload: Any, record: ServiceRecord, on_complete: CompletionFn) -> None:
        record.completed_at = self.sim.now
        self.total_service_time += record.service_time
        self.busy_walkers -= 1
        self.completed += 1
        on_complete(payload, record)
        self._dispatch()
        if self.on_idle is not None and self.busy_walkers == 0 and not self._queue:
            self.on_idle()

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        return self.busy_walkers

    @property
    def idle(self) -> bool:
        return self.busy_walkers == 0 and not self._queue

    def mean_queue_delay(self) -> float:
        done = self.completed
        return self.total_queue_delay / done if done else 0.0

    def mean_service_time(self) -> float:
        done = self.completed
        return self.total_service_time / done if done else 0.0
