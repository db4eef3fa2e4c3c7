"""Page migration engine (extension; §VI names this as future work).

Mechanism: the IOMMU already counts translations per PTE; the engine
additionally tracks *which* GPM keeps walking each remote page (a small
LRU table).  When one non-owner GPM accumulates ``threshold`` walks of the
same page, the page migrates to it:

1. a bulk page-copy message moves the page's data home-to-destination;
2. a wafer-wide TLB shootdown scrubs every stale translation (reusing
   :mod:`repro.system.shootdown` — the mechanism the paper says is the
   only shootdown trigger once migration enters the picture);
3. the global and local page tables are re-pointed at the new home.

Functionally the remap is atomic (no simulated instant where the page is
unmapped); the copy and shootdown costs are paid in simulated time and
accounted in :class:`MigrationStats`.  A per-page cooldown prevents
ping-ponging when several GPMs share a hub page.

In-flight window: a translation response already travelling when the page
migrates installs the old mapping at its requester until normal TLB
eviction.  This mirrors the transient real systems close by quiescing,
which the timing model does not need: data accesses here are
latency/traffic events, not stateful reads, so the stale window costs a
few extra remote hops and nothing else.
"""

from __future__ import annotations

from typing import Dict

from repro.config.migration import MigrationConfig
from repro.mem.page import PageTableEntry
from repro.noc.messages import Message, MessageKind
from repro.sim.component import Component
from repro.system.shootdown import shootdown

#: Synthetic frame-number base for migrated pages, clear of any frame the
#: allocator hands out.
_MIGRATION_PFN_BASE = 1 << 40


class MigrationStats:
    """Counters for one wafer's migration activity."""

    def __init__(self) -> None:
        self.migrations = 0
        self.bytes_moved = 0
        self.rejected_cooldown = 0
        self.rejected_capacity = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MigrationStats(migrations={self.migrations}, "
            f"bytes={self.bytes_moved})"
        )


class MigrationEngine(Component):
    """Watches IOMMU walks and migrates pages toward their hot requester."""

    def __init__(self, sim, wafer, config: MigrationConfig) -> None:
        super().__init__(sim, "migration")
        self.wafer = wafer
        self.config = config
        # vpn -> (gpm -> walk count); LRU-bounded.
        self._walks: Dict[int, Dict[int, int]] = {}
        self._cooldown_until: Dict[int, int] = {}
        self._next_pfn = _MIGRATION_PFN_BASE
        self.migration_stats = MigrationStats()

    # ------------------------------------------------------------------
    # Observation (called by the IOMMU on every completed walk)
    # ------------------------------------------------------------------
    def observe_walk(self, vpn: int, requester_gpm: int) -> None:
        entry = self.wafer.iommu.page_table.lookup(vpn)
        if entry is None or entry.owner_gpm == requester_gpm:
            return
        counts = self._walks.get(vpn)
        if counts is None:
            if len(self._walks) >= self.config.table_entries:
                self._walks.pop(next(iter(self._walks)))  # LRU victim
            counts = {}
        else:
            del self._walks[vpn]  # re-insert as most recent
        self._walks[vpn] = counts
        counts[requester_gpm] = counts.get(requester_gpm, 0) + 1
        if counts[requester_gpm] >= self.config.threshold:
            self._maybe_migrate(vpn, entry, requester_gpm)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def _maybe_migrate(
        self, vpn: int, entry: PageTableEntry, dest_gpm: int
    ) -> None:
        if self.migration_stats.migrations >= self.config.max_migrations:
            self.migration_stats.rejected_capacity += 1
            return
        if self.sim.now < self._cooldown_until.get(vpn, 0):
            self.migration_stats.rejected_cooldown += 1
            return
        self.migrate_pages([vpn], dest_gpm)

    def migrate_pages(
        self, vpns, dest_gpm: int, *, copy: bool = True
    ) -> int:
        """Re-home ``vpns`` onto ``dest_gpm``; returns pages moved.

        The batch mechanism behind both the hot-page policy above and the
        recovery manager's drain / emergency-remap / re-home paths.  One
        wafer-wide shootdown covers the whole batch; each page then gets a
        fresh frame owned by ``dest_gpm``, functionally atomic (no
        simulated instant where a page is unmapped).  With ``copy`` the
        data travels as one bulk PAGE_MIGRATION message per source GPM;
        ``copy=False`` models an emergency remap of a dead owner's pages —
        the data is lost, only the mapping moves.
        """
        page_size = self.wafer.address_space.page_size
        entries = []
        for vpn in vpns:
            entry = self.wafer.iommu.page_table.lookup(vpn)
            if entry is None or entry.owner_gpm == dest_gpm:
                continue
            entries.append(entry)
        if not entries:
            return 0

        # Functional remap, atomic from the simulation's point of view:
        # scrub every stale copy, then re-home the pages.
        shootdown(self.wafer, [entry.vpn for entry in entries])
        dest = self.wafer.gpms[dest_gpm]
        by_source: Dict[int, list] = {}
        for entry in entries:
            new_entry = PageTableEntry(
                vpn=entry.vpn,
                pfn=self._allocate_frame(),
                owner_gpm=dest_gpm,
                readable=entry.readable,
                writable=entry.writable,
            )
            self.wafer.iommu.page_table.insert(new_entry)
            dest.hierarchy.install_local_page(new_entry)
            self._walks.pop(entry.vpn, None)
            self._cooldown_until[entry.vpn] = (
                self.sim.now + self.config.cooldown_cycles
            )
            by_source.setdefault(entry.owner_gpm, []).append(entry.vpn)

        if copy:
            # Timing and traffic: one bulk copy message per source GPM.
            for source_gpm in sorted(by_source):
                moved = by_source[source_gpm]
                self.wafer.network.send(
                    Message(
                        MessageKind.PAGE_MIGRATION,
                        src=self.wafer.gpms[source_gpm].coordinate,
                        dst=dest.coordinate,
                        payload=moved[0] if len(moved) == 1 else tuple(moved),
                        size_bytes=page_size * len(moved),
                    ),
                    on_deliver=lambda _msg: None,
                )
            self.migration_stats.bytes_moved += page_size * len(entries)
        self.migration_stats.migrations += len(entries)
        self.bump("migrations", len(entries))
        return len(entries)

    def _allocate_frame(self) -> int:
        self._next_pfn += 1
        return self._next_pfn

    # ------------------------------------------------------------------
    def tracked_pages(self) -> int:
        return len(self._walks)
