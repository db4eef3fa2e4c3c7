"""Base class for simulated hardware components."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Component:
    """A named hardware block attached to a :class:`Simulator`.

    Components share the simulator clock and expose a ``stats`` dictionary of
    plain counters.  Subclasses add structure-specific state; the base class
    only standardises naming and stat reporting so experiment harnesses can
    collect results uniformly.

    The base declares ``__slots__`` so hot subclasses can opt into slotted
    attribute storage by declaring their own; subclasses without
    ``__slots__`` keep a ``__dict__`` as before.
    """

    __slots__ = ("sim", "name", "stats")

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.stats: Dict[str, int] = {}

    def bump(self, stat: str, amount: int = 1) -> None:
        """Increment a named counter."""
        self.stats[stat] = self.stats.get(stat, 0) + amount

    def stat(self, name: str) -> int:
        """Read a counter, defaulting to zero."""
        return self.stats.get(name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
