"""Per-run fault state: the live view of a :class:`FaultPlan` on a wafer.

A :class:`FaultState` is built once per :class:`WaferScaleGPU` and shared
by the network (routing + transient injection), the GPMs (timeout/retry),
the policies (dead-holder avoidance), and the IOMMU (redirection
fallback).  It owns the plan's *single* seeded random stream — transient
verdicts are drawn one per eligible send in simulator order, which the
event engine makes deterministic — and the degradation counters that land
in ``RunResult.extras["faults"]`` and the ``faults.*`` metrics.

Since PR 5 the state is *mutable over time*: a plan with a
:class:`~repro.faults.timeline.FaultTimeline` drives the
:class:`~repro.faults.recovery.RecoveryManager`, which calls the mutators
below (:meth:`kill_gpm`, :meth:`recover_gpm`, :meth:`degrade_link`,
:meth:`restore_link`) mid-run.  Every mutation bumps ``topology_epoch``;
the network's route table is dropped on the next send after an epoch
change, so in-flight retries re-resolve against the *current* topology
rather than a stale detour.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.noc.routing import detour_links, hop_count, route_links

Coordinate = Tuple[int, int]
LinkKey = Tuple[Coordinate, Coordinate]

#: Transient verdicts returned by :meth:`FaultState.transient_verdict`.
DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"


class FaultState:
    """Runtime fault bookkeeping bound to one topology."""

    def __init__(self, plan: FaultPlan, topology) -> None:
        self.plan = plan
        self.topology = topology
        width, height = topology.width, topology.height
        directed: Set[LinkKey] = set()
        for a, b in plan.dead_links:
            for coord in (a, b):
                if not (0 <= coord[0] < width and 0 <= coord[1] < height):
                    raise ConfigurationError(
                        f"dead link endpoint {coord} outside "
                        f"{width}x{height} mesh"
                    )
            if hop_count(a, b) != 1:
                raise ConfigurationError(
                    f"dead link {a}<->{b} does not connect adjacent tiles"
                )
            directed.add((a, b))
            directed.add((b, a))
        for coord in plan.dead_gpms:
            if coord == topology.cpu_coordinate:
                raise ConfigurationError(
                    f"cannot kill the CPU tile at {coord}"
                )
            if not (0 <= coord[0] < width and 0 <= coord[1] < height):
                raise ConfigurationError(
                    f"dead GPM {coord} outside {width}x{height} mesh"
                )
        self.boot_dead_tiles = frozenset(plan.dead_gpms)
        self.dead_links: Set[LinkKey] = set(directed)
        self.dead_tiles: Set[Coordinate] = set(self.boot_dead_tiles)
        #: link -> bandwidth factor, canonical (sorted) endpoint order.
        self.degraded: Dict[LinkKey, float] = {}
        self.coord_to_id = {
            tile.coordinate: gpm_id
            for gpm_id, tile in enumerate(topology.gpm_tiles)
        }
        self.dead_gpm_ids: Set[int] = {
            self.coord_to_id[coord] for coord in self.dead_tiles
        }
        self.live_gpm_ids: List[int] = []
        self._recompute_live()
        #: Bumped by every topology mutation; the network's route table
        #: and any epoch-guarded in-flight work key on it.
        self.topology_epoch = 0
        #: True when the plan carries a timeline: mid-run death becomes a
        #: legitimate race, so sends to dead tiles dead-letter instead of
        #: raising, and link reports carry bandwidth factors.
        self.dynamic = plan.timeline is not None
        if self.dynamic:
            self._validate_timeline(plan.timeline, width, height)
        #: The plan's one transient-fault stream.  Verdicts are consumed
        #: in event order, so the schedule is a pure function of the seed.
        self._rng = random.Random(plan.seed)
        self.retry = RetryPolicy(
            max_retries=plan.max_retries,
            base_delay=plan.retry_backoff_cycles,
            multiplier=2.0,
        )
        self.counters: Dict[str, int] = {}

    def _validate_timeline(self, timeline, width: int, height: int) -> None:
        cpu = self.topology.cpu_coordinate
        for event in timeline.events:
            coords = (
                event.link if hasattr(event, "link") else (event.gpm,)
            )
            for coord in coords:
                if not (0 <= coord[0] < width and 0 <= coord[1] < height):
                    raise ConfigurationError(
                        f"timeline event {event!r} references {coord} "
                        f"outside the {width}x{height} mesh"
                    )
            if hasattr(event, "link") and hop_count(*event.link) != 1:
                raise ConfigurationError(
                    f"timeline link {event.link} does not connect "
                    f"adjacent tiles"
                )
            if hasattr(event, "gpm") and event.gpm == cpu:
                raise ConfigurationError(
                    f"timeline event {event!r} targets the CPU tile"
                )

    def _recompute_live(self) -> None:
        self.live_gpm_ids = [
            gpm_id
            for gpm_id in range(len(self.topology.gpm_tiles))
            if gpm_id not in self.dead_gpm_ids
        ]
        if not self.live_gpm_ids:
            raise ConfigurationError("fault plan kills every GPM")

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def report(self) -> Dict[str, object]:
        """Degradation summary for ``RunResult.extras["faults"]``."""
        return {
            "plan": self.plan.to_dict(),
            "dead_links": len(self.plan.dead_links),
            "dead_gpms": len(self.plan.dead_gpms),
            "counters": dict(sorted(self.counters.items())),
        }

    # ------------------------------------------------------------------
    # Timeline mutators (RecoveryManager only)
    # ------------------------------------------------------------------
    def _bump_epoch(self) -> None:
        self.topology_epoch += 1

    def kill_gpm(self, gpm_id: int) -> None:
        """Mark ``gpm_id`` dead mid-run and invalidate routes."""
        coord = self.topology.gpm_tiles[gpm_id].coordinate
        self.dead_gpm_ids.add(gpm_id)
        self.dead_tiles.add(coord)
        self._recompute_live()
        self._bump_epoch()

    def recover_gpm(self, gpm_id: int) -> None:
        """Mark ``gpm_id`` alive again and invalidate routes."""
        coord = self.topology.gpm_tiles[gpm_id].coordinate
        self.dead_gpm_ids.discard(gpm_id)
        self.dead_tiles.discard(coord)
        self._recompute_live()
        self._bump_epoch()

    def degrade_link(self, link: LinkKey, factor: float) -> None:
        """Run ``link`` (both directions) at ``factor`` bandwidth."""
        a, b = link
        key = (a, b) if a <= b else (b, a)
        self.degraded[key] = factor
        self._bump_epoch()

    def restore_link(self, link: LinkKey) -> None:
        """Return ``link`` to full health: clears any degradation and
        resurrects the link if it was dead (both directions)."""
        a, b = link
        key = (a, b) if a <= b else (b, a)
        self.degraded.pop(key, None)
        self.dead_links.discard((a, b))
        self.dead_links.discard((b, a))
        self._bump_epoch()

    # ------------------------------------------------------------------
    # Permanent faults
    # ------------------------------------------------------------------
    def gpm_alive(self, gpm_id: int) -> bool:
        return gpm_id not in self.dead_gpm_ids

    def tile_alive(self, coordinate: Coordinate) -> bool:
        return coordinate not in self.dead_tiles

    def remap_owner(self, gpm_id: int) -> int:
        """Deterministic surviving owner for a dead GPM's pages."""
        return self.live_gpm_ids[gpm_id % len(self.live_gpm_ids)]

    def route(self, src: Coordinate, dst: Coordinate) -> Tuple[List[LinkKey], int]:
        """``(links, extra_hops)`` for one message, detouring dead links.

        The XY route is used whenever it survives; otherwise the BFS
        detour.  ``extra_hops`` is the detour's cost over the Manhattan
        distance.  Resolved against the current dead-link set on every
        call; :class:`~repro.noc.network.MeshNetwork` tables the result
        until ``topology_epoch`` moves.  Raises
        :class:`~repro.errors.UnreachableError` when partitioned.
        """
        topology = self.topology
        links = route_links(src, dst, topology.width, topology.height)
        extra = 0
        if any(link in self.dead_links for link in links):
            links = detour_links(
                src, dst, topology.width, topology.height, self.dead_links
            )
            extra = len(links) - hop_count(src, dst)
        return links, extra

    # ------------------------------------------------------------------
    # Transient faults
    # ------------------------------------------------------------------
    def transient_verdict(self) -> Optional[str]:
        """One fault draw for one eligible message; None = unharmed."""
        plan = self.plan
        if not plan.has_transients:
            return None
        draw = self._rng.random()
        if draw < plan.drop_prob:
            return DROP
        if draw < plan.drop_prob + plan.delay_prob:
            return DELAY
        if draw < plan.drop_prob + plan.delay_prob + plan.duplicate_prob:
            return DUPLICATE
        return None
