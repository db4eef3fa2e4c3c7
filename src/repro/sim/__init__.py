"""Discrete-event simulation engine.

The engine models time as integer cycles.  Components schedule callbacks on a
shared :class:`Simulator`; the :class:`WalkerPool` models the page-table
walkers whose queueing dominates the paper's IOMMU bottleneck analysis.
"""

from repro.sim.engine import Simulator
from repro.sim.component import Component
from repro.sim.queueing import WalkerPool

__all__ = ["Simulator", "Component", "WalkerPool"]
