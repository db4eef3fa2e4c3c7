"""A directed mesh link with latency, bandwidth, and traffic accounting."""

from __future__ import annotations

from typing import Tuple

Coordinate = Tuple[int, int]


class Link:
    """One directed link between adjacent tiles.

    Transmission is modelled with a *busy-until* clock: a message begins
    serialising when both it has arrived and the link is free, occupies the
    link for its serialisation time, and is delivered one link latency after
    it starts.  This captures queueing under load without per-flit events.
    """

    __slots__ = (
        "src",
        "dst",
        "latency",
        "bytes_per_cycle",
        "busy_until",
        "bytes_carried",
        "translation_bytes",
        "messages_carried",
        "total_wait_cycles",
        "busy_cycles",
        "_bandwidth_factor",
        "last_serialization",
        "_ser_cache",
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
        #: Serialisation charged for the most recent transmit, so the
        #: conservation sanitizer can shadow busy_cycles exactly even
        #: when the factor changes between messages.
        self.last_serialization = 0
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

    def transmit(self, arrival: int, size_bytes: int, is_translation: bool) -> int:
        """Account one message; returns its delivery time at ``dst``.

        The serialisation math inlines :func:`repro.units.serialization_cycles`
        (bit-identical — tests cross-check): this is the hottest leaf of
        ``noc.send`` and the call overhead was measurable.
        """
        start = self.busy_until
        if arrival >= start:
            start = arrival
        else:
            self.total_wait_cycles += start - arrival
        serialization = self._ser_cache.get(size_bytes)
        if serialization is None:
            effective = self.bytes_per_cycle * self._bandwidth_factor
            if effective <= 0:
                raise ValueError("link bandwidth must be positive")
            serialization = int(-(-size_bytes // effective))
            if serialization < 1:
                serialization = 1
            self._ser_cache[size_bytes] = serialization
        self.last_serialization = serialization
        self.busy_until = start + serialization
        self.busy_cycles += serialization
        self.bytes_carried += size_bytes
        self.messages_carried += 1
        if is_translation:
            self.translation_bytes += size_bytes
        return start + self.latency

    def busy_fraction(self, now: int) -> float:
        """Exact fraction of elapsed cycles the link spent serialising."""
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / now)
