"""Replays a :class:`~repro.faults.timeline.FaultTimeline` on a live wafer.

The :class:`RecoveryManager` is an ordinary engine component: every
timeline event is scheduled at construction, so the simulator stays alive
until the last one has applied even if the workload drains first (a
recovered module may still have trace left to run).  Each event mutates
the shared :class:`~repro.faults.state.FaultState` (bumping its topology
epoch so routes and in-flight retries re-resolve) and the affected
hardware models:

* ``DegradeLink`` / ``RestoreLink`` — the fault state records the factor
  for reporting; the :class:`~repro.noc.link.Link` objects serialise at
  the new effective bandwidth from the next transmit on.
* ``DrainWarning`` — the dying module's hottest owned pages (by the PTE
  access counter) are checkpoint-migrated to the survivors in paced
  batches until the deadline, reusing
  :meth:`~repro.system.migration.MigrationEngine.migrate_pages`.
* ``KillGpm`` — the issue engine halts, queued translations are
  abandoned, and whatever the drain did not save is emergency-remapped
  (mapping only, data lost) to a deterministic survivor — PR 4's
  dead-owner remap, applied mid-run.
* ``RecoverGpm`` — the module re-attaches, its displaced pages migrate
  back home (with copy traffic this time), and its trace resumes.

All counters land under ``timeline.*`` in the fault state, and therefore
in ``RunResult.extras["faults"]["counters"]`` and the ``faults.timeline.*``
metrics.
"""

from __future__ import annotations

from typing import Dict, List

from repro.faults.timeline import (
    DegradeLink,
    DrainWarning,
    FaultTimeline,
    KillGpm,
    RecoverGpm,
    RestoreLink,
)
from repro.sim.component import Component

#: Pages checkpointed per drain batch, and the pacing between batches.
#: One batch per ~512 cycles keeps the drain's copy traffic from
#: flooding the mesh while still clearing a hot working set before a
#: typical warning-to-kill window closes.
DRAIN_BATCH_PAGES = 8
DRAIN_INTERVAL_CYCLES = 512


class RecoveryManager(Component):
    """Drives fault-timeline events as ordinary simulator events."""

    def __init__(self, sim, wafer, timeline: FaultTimeline) -> None:
        super().__init__(sim, "recovery")
        self.wafer = wafer
        self.timeline = timeline
        #: gpm_id -> vpns emergency-remapped away at its kill.
        self._displaced: Dict[int, List[int]] = {}
        #: gpm_id -> vpns checkpoint-drained before its kill.
        self._drained: Dict[int, List[int]] = {}
        self._migration = None
        for event in timeline.events:
            sim.schedule_at(event.cycle, lambda e=event: self._apply(e))

    # ------------------------------------------------------------------
    def _engine(self):
        """The wafer's migration engine, or a private one.

        A private engine is deliberately *not* bound to the IOMMU: it
        never observes walks, it only provides the batch re-home
        mechanism with the same timing/traffic model.
        """
        if self.wafer.migration is not None:
            return self.wafer.migration
        if self._migration is None:
            from repro.system.migration import MigrationEngine

            self._migration = MigrationEngine(
                self.sim, self.wafer, self.wafer.config.migration
            )
        return self._migration

    def _count(self, key: str, amount: int = 1) -> None:
        """Count in the fault-state report (``faults.timeline.*``)."""
        self.wafer.faults.bump(f"timeline.{key}", amount)

    # ------------------------------------------------------------------
    def _apply(self, event) -> None:
        if isinstance(event, DegradeLink):
            self._apply_degrade(event)
        elif isinstance(event, RestoreLink):
            self._apply_restore(event)
        elif isinstance(event, DrainWarning):
            self._apply_drain(event)
        elif isinstance(event, KillGpm):
            self._apply_kill(event)
        elif isinstance(event, RecoverGpm):
            self._apply_recover(event)

    def _apply_degrade(self, event: DegradeLink) -> None:
        a, b = event.link
        self.wafer.faults.degrade_link(event.link, event.bandwidth_factor)
        self.wafer.network.set_link_bandwidth_factor(
            a, b, event.bandwidth_factor
        )
        self._count("degrade_links")

    def _apply_restore(self, event: RestoreLink) -> None:
        a, b = event.link
        self.wafer.faults.restore_link(event.link)
        self.wafer.network.set_link_bandwidth_factor(a, b, 1.0)
        self._count("restore_links")

    def _apply_kill(self, event: KillGpm) -> None:
        faults = self.wafer.faults
        gpm_id = self.wafer.gpm_id_at(event.gpm)
        if not faults.gpm_alive(gpm_id):
            self._count("redundant_events")
            return
        faults.kill_gpm(gpm_id)
        gpm = self.wafer.gpms[gpm_id]
        gpm.halt()
        self.wafer.note_gpm_killed(gpm)
        owned = sorted(
            entry.vpn
            for entry in self.wafer.iommu.page_table
            if entry.owner_gpm == gpm_id
        )
        if owned:
            target = faults.remap_owner(gpm_id)
            moved = self._engine().migrate_pages(owned, target, copy=False)
            self._count("remapped_pages", moved)
            self._displaced[gpm_id] = owned
        self._count("kills")

    def _apply_recover(self, event: RecoverGpm) -> None:
        faults = self.wafer.faults
        gpm_id = self.wafer.gpm_id_at(event.gpm)
        if faults.gpm_alive(gpm_id):
            self._count("redundant_events")
            return
        faults.recover_gpm(gpm_id)
        gpm = self.wafer.gpms[gpm_id]
        # Re-attach is idempotent; a boot-dead module was never attached.
        self.wafer.network.attach(gpm.coordinate, gpm.mesh_handlers())
        vpns = sorted(
            set(self._displaced.pop(gpm_id, []))
            | set(self._drained.pop(gpm_id, []))
        )
        if vpns:
            moved = self._engine().migrate_pages(vpns, gpm_id, copy=True)
            self._count("rehomed_pages", moved)
        self.wafer.note_gpm_recovered(gpm)
        gpm.resume()
        self._count("recoveries")

    # ------------------------------------------------------------------
    # Drain: paced checkpoint migration off a dying module
    # ------------------------------------------------------------------
    def _apply_drain(self, event: DrainWarning) -> None:
        faults = self.wafer.faults
        gpm_id = self.wafer.gpm_id_at(event.gpm)
        if not faults.gpm_alive(gpm_id):
            self._count("redundant_events")
            return
        # Hottest pages first: the PTE access counter is the only signal
        # a real driver would have at warning time.
        queue = [
            entry.vpn
            for entry in sorted(
                (
                    e
                    for e in self.wafer.iommu.page_table
                    if e.owner_gpm == gpm_id
                ),
                key=lambda e: (-e.access_count, e.vpn),
            )
        ]
        self._count("drain_warnings")
        if queue:
            self._drain_batch(gpm_id, queue, event.deadline, 0)

    def _drain_batch(
        self, gpm_id: int, queue: List[int], deadline: int, checkpoint: int
    ) -> None:
        faults = self.wafer.faults
        if not faults.gpm_alive(gpm_id) or self.sim.now >= deadline:
            return  # the kill landed (or is landing) — stop checkpointing
        survivors = [g for g in faults.live_gpm_ids if g != gpm_id]
        if not survivors:
            return
        batch, rest = queue[:DRAIN_BATCH_PAGES], queue[DRAIN_BATCH_PAGES:]
        dest = survivors[checkpoint % len(survivors)]
        page_table = self.wafer.iommu.page_table
        batch = [
            vpn
            for vpn in batch
            if (entry := page_table.lookup(vpn)) is not None
            and entry.owner_gpm == gpm_id
        ]
        if batch:
            moved = self._engine().migrate_pages(batch, dest, copy=True)
            self._count("drained_pages", moved)
            self._count("drain_checkpoints")
            self._drained.setdefault(gpm_id, []).extend(batch)
        if rest and self.sim.now + DRAIN_INTERVAL_CYCLES < deadline:
            self.sim.schedule(
                DRAIN_INTERVAL_CYCLES,
                lambda: self._drain_batch(
                    gpm_id, rest, deadline, checkpoint + 1
                ),
            )
