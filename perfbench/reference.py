"""A fixed pure-Python workload that measures how fast the host is now.

The shared host's speed drifts by tens of percent over minutes, and
every sample's wall time drifts with it.  This kernel is owned by the
benchmark, so no change to the program moves it: timing it next to each
sample gives the host's current speed, by which ``run.py`` normalises
the host-time metrics.  It mimics the simulator's mix of work: a
calendar of closures, slotted objects updated through attribute access,
dict lookups and a working set of a few MiB touched in a scattered
order.
"""

from __future__ import annotations

from time import perf_counter

#: Live objects in the kernel's working set.
TABLE_SIZE = 1 << 16
#: Events the kernel dispatches per call.
EVENTS = 100_000


class _Entry:
    __slots__ = ("key", "hits", "owner", "busy_until")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0
        self.owner = key % 48
        self.busy_until = 0


def reference_kernel(events: int = EVENTS) -> int:
    """Run the kernel once; returns a checksum so the work is consumed."""
    table = [_Entry(i) for i in range(TABLE_SIZE)]
    index = {entry.key * 7919: entry for entry in table}
    slots = [[] for _ in range(64)]
    state = {"now": 0, "sum": 0, "x": 12345}

    def touch(key: int) -> None:
        entry = index.get(key * 7919)
        if entry is not None:
            entry.hits += 1
            entry.busy_until = max(entry.busy_until, state["now"]) + 3
            state["sum"] += entry.owner

    for _ in range(events):
        x = state["x"] = (state["x"] * 1103515245 + 12345) & 0x7FFFFFFF
        now = state["now"]
        slots[(now + (x & 31) + 1) & 63].append(lambda k=x % TABLE_SIZE: touch(k))
        slot = slots[now & 63]
        while slot:
            slot.pop()()
        state["now"] = now + 1
    for slot in slots:
        while slot:
            slot.pop()()
    return state["sum"]


def time_reference() -> float:
    """Seconds one :func:`reference_kernel` call takes right now."""
    started = perf_counter()
    reference_kernel()
    return perf_counter() - started

