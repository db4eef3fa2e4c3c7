"""The page-table-walker pool: fixed-latency servers fed by a FIFO queue.

It models the structure whose queueing delay dominates the paper's
bottleneck analysis (Figure 3): the IOMMU's walkers and each GPM's GMMU.
"""

from __future__ import annotations

from collections import deque
from types import MethodType
from typing import Any, Callable, Deque, List, Tuple

from repro.sim.component import Component
from repro.sim.engine import Simulator


class WalkerPool(Component):
    """A pool of identical fixed-latency servers fed by a FIFO queue.

    Models page table walkers: ``num_walkers`` concurrent walks, each taking
    ``service_cycles``.  A finished walk is its handler bound to its payload,
    scheduled straight on the engine, so its host time is booked to the
    handler's layer.  The handler owns the walk's two pool steps: it first
    releases its walker (``busy_walkers -= 1``) and last starts queued walks
    (:meth:`dispatch`).  The queue is unbounded.
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
        self._queue: Deque[Tuple[Any, Callable[[Any], None]]] = deque()
        #: VPN -> number of queued (not yet started) payloads carrying it.
        #: Lets :meth:`drain_vpns` answer the common "nothing matches" case
        #: with a dict probe instead of a full queue scan; payloads without
        #: a ``vpn`` attribute (e.g. bare ints in GMMU pools) are not
        #: indexed.
        self._queued_vpn_counts: dict = {}
        sanitizer = getattr(sim, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.watch_buffer(
                name, lambda: len(self._queue) + self.busy_walkers
            )

    # ------------------------------------------------------------------
    def submit(self, payload: Any, handler: Callable[[Any], None]) -> None:
        """Enqueue a walk; ``handler(payload)`` runs when it finishes."""
        self._queue.append((payload, handler))
        vpn = getattr(payload, "vpn", None)
        if vpn is not None:
            counts = self._queued_vpn_counts
            counts[vpn] = counts.get(vpn, 0) + 1
        self.bump("submitted")
        self.dispatch()

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

    def drain_vpns(self, vpns) -> List[Any]:
        """Remove queued (not yet started) payloads whose ``vpn`` is in
        ``vpns``, in queue order.

        Used by the PW-queue revisit mechanism: when a walk for VPN *N*
        completes, identical pending requests are answered without their own
        walks.  Their handlers are NOT invoked — the caller answers them
        directly.  This runs on *every* walk completion and usually matches
        nothing: the queued-VPN index answers that case without touching
        the queue.
        """
        counts = self._queued_vpn_counts
        if not any(vpn in counts for vpn in vpns):
            return []
        kept: Deque[Tuple[Any, Callable[[Any], None]]] = deque()
        removed: List[Any] = []
        for entry in self._queue:
            payload = entry[0]
            if payload.vpn in vpns:
                removed.append(payload)
                self._unindex(payload)
            else:
                kept.append(entry)
        self._queue = kept
        self.bump("coalesced", len(removed))
        return removed

    def dispatch(self) -> None:
        """Start queued walks on free walkers."""
        while self._queue and self.busy_walkers < self.num_walkers:
            payload, handler = self._queue.popleft()
            self._unindex(payload)
            self.busy_walkers += 1
            self.sim.schedule(self.service_cycles, MethodType(handler, payload))

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)
