"""A directed mesh link: a busy-until clock plus folded traffic totals."""

from __future__ import annotations

from typing import Tuple

from repro.units import serialization_cycles

Coordinate = Tuple[int, int]


class Link:
    """One directed link between adjacent tiles.

    Transmission is modelled with a *busy-until* clock: a message begins
    serialising when both it has arrived and the link is free, occupies the
    link for its serialisation time, and is delivered one link latency after
    it starts.  This captures queueing under load without per-flit events.

    :meth:`repro.noc.network.MeshNetwork.send` advances ``busy_until`` and
    ``total_wait_cycles`` in its hop loop; the traffic totals
    (``bytes_carried``, ``messages_carried``, ``translation_bytes``,
    ``busy_cycles``) are folded in later from the network's per-route
    tallies.
    """

    __slots__ = (
        "src", "dst", "latency", "bytes_per_cycle", "busy_until",
        "bytes_carried", "translation_bytes", "messages_carried",
        "total_wait_cycles", "busy_cycles", "_bandwidth_factor", "_ser_cache",
    )

    def __init__(
        self,
        src: Coordinate,
        dst: Coordinate,
        latency: int,
        bytes_per_cycle: float,
    ) -> None:
        self.src = src
        self.dst = dst
        self.latency = latency
        self.bytes_per_cycle = bytes_per_cycle
        self.busy_until = 0
        self.bytes_carried = 0
        self.translation_bytes = 0
        self.messages_carried = 0
        self.total_wait_cycles = 0
        self.busy_cycles = 0
        #: Fail-slow multiplier on effective bandwidth; 1.0 = healthy.
        #: Serialisation time scales, the busy-until clock stays integer.
        self._bandwidth_factor = 1.0
        #: size_bytes -> serialisation cycles at the *current* bandwidth
        #: factor.  Message sizes come from a small fixed table, so this
        #: stays tiny; the ``bandwidth_factor`` setter clears it, keeping
        #: fail-slow runs bit-identical to the uncached math.
        self._ser_cache: dict = {}

    @property
    def bandwidth_factor(self) -> float:
        return self._bandwidth_factor

    @bandwidth_factor.setter
    def bandwidth_factor(self, factor: float) -> None:
        self._bandwidth_factor = factor
        self._ser_cache.clear()

    def serialization(self, size_bytes: int) -> int:
        """Cycles ``size_bytes`` occupies the link at the current factor."""
        serialization = self._ser_cache.get(size_bytes)
        if serialization is None:
            serialization = serialization_cycles(
                size_bytes, self.bytes_per_cycle * self._bandwidth_factor
            )
            self._ser_cache[size_bytes] = serialization
        return serialization

    def busy_fraction(self, now: int) -> float:
        """Exact fraction of elapsed cycles the link spent serialising."""
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / now)
