"""The per-GPM translation hierarchy (Figure 1(b) / Figure 10(a)).

A CU-side translation walks: L1 TLB -> L2 TLB -> cuckoo filter -> last-level
TLB (the "GMMU cache") -> GMMU page-table walkers.  The cuckoo filter sits
between the L2 TLB and the last-level TLB and answers "might this VPN be in
the last-level TLB or the local page table?"; a negative answer short-cuts
straight to the remote path, a false positive pays the full local path first
(§II-B).

Under HDPAT the same structures also serve *remote* peer probes: cached
remote PTEs live in the last-level TLB and are tracked by the filter, so a
probe is a filter check plus (on a positive) one last-level TLB lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config.gpm import GPMConfig
from repro.errors import CapacityError
from repro.filters.cuckoo import CuckooFilter
from repro.mem.page import PageTableEntry
from repro.mem.page_table import LocalPageTable
from repro.tlb.tlb import SetAssociativeTLB


class ProbeOutcome(enum.Enum):
    """Result category of a local hierarchy probe.

    Identity-hashed like :class:`repro.core.request.ServedBy`: the GPM
    maps each probe's outcome through a dict.
    """

    __hash__ = object.__hash__

    L1_HIT = "l1_hit"
    L2_HIT = "l2_hit"
    LLT_HIT = "llt_hit"
    FILTER_NEGATIVE = "filter_negative"  # definitely not local -> remote path
    NEEDS_WALK = "needs_walk"  # filter positive, LLT miss -> GMMU walk


@dataclass(slots=True)
class LocalProbeResult:
    """Outcome, accumulated latency, and the entry when one was found."""

    outcome: ProbeOutcome
    latency: int
    entry: Optional[PageTableEntry] = None


class TranslationHierarchy:
    """All translation-side structures of one GPM."""

    __slots__ = (
        "gpm_id",
        "config",
        "l1_vector",
        "l2",
        "llt",
        "cuckoo",
        "page_table",
        "_l1_latency",
        "_l2_latency",
        "_cuckoo_latency",
        "_llt_latency",
        "false_positives",
        "filter_negatives",
        "remote_cached_vpns",
    )

    def __init__(self, gpm_id: int, config: GPMConfig) -> None:
        self.gpm_id = gpm_id
        self.config = config
        prefix = f"gpm{gpm_id}"
        self.l1_vector = _build_tlb(prefix + ".l1v", config.l1_vector_tlb)
        self.l2 = _build_tlb(prefix + ".l2tlb", config.l2_tlb)
        self.llt = _build_tlb(prefix + ".llt", config.gmmu_cache)
        self.cuckoo = CuckooFilter(
            capacity=config.cuckoo_capacity,
            fingerprint_bits=config.cuckoo_fingerprint_bits,
            seed=gpm_id + 1,
        )
        self.page_table = LocalPageTable(gpm_id)
        # Per-structure latencies, hoisted out of the per-probe path
        # (each was two attribute hops through the config dataclasses).
        self._l1_latency = config.l1_vector_tlb.latency
        self._l2_latency = config.l2_tlb.latency
        self._cuckoo_latency = config.cuckoo_latency
        self._llt_latency = config.gmmu_cache.latency
        self.false_positives = 0
        self.filter_negatives = 0
        self.remote_cached_vpns = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def install_local_pages(self, entries: Sequence[PageTableEntry]) -> None:
        """Register locally resident pages, in order: page table + filter.

        Raises :class:`CapacityError` if the filter refuses a page: a local
        page without its fingerprint would read filter-negative, so every
        access to it would take the remote path.
        """
        self.page_table.insert_many(entries)
        refused = self.cuckoo.insert_many([entry.vpn for entry in entries])
        if refused:
            cuckoo = self.cuckoo
            raise CapacityError(
                f"gpm{self.gpm_id}: cuckoo filter refused {refused} of "
                f"{len(entries)} local pages (size={cuckoo.size}, "
                f"buckets={cuckoo.num_buckets}x{cuckoo.slots_per_bucket})"
            )

    # ------------------------------------------------------------------
    # CU-side probe (synchronous part of a translation)
    # ------------------------------------------------------------------
    def probe_local(self, vpn: int) -> LocalProbeResult:
        """Walk L1 -> L2 -> filter -> LLT; stops before any GMMU walk.

        The returned latency covers every structure actually touched.  A
        ``NEEDS_WALK`` outcome means the filter said "maybe local" but the
        last-level TLB missed — the caller must submit a GMMU walk (which
        may still fail if the positive was false).
        """
        latency = self._l1_latency
        entry = self.l1_vector.lookup(vpn)
        if entry is not None:
            return LocalProbeResult(ProbeOutcome.L1_HIT, latency, entry)
        latency += self._l2_latency
        entry = self.l2.lookup(vpn)
        if entry is not None:
            self._fill_l1(vpn, entry)
            return LocalProbeResult(ProbeOutcome.L2_HIT, latency, entry)
        latency += self._cuckoo_latency
        if not self.cuckoo.contains(vpn):
            self.filter_negatives += 1
            return LocalProbeResult(ProbeOutcome.FILTER_NEGATIVE, latency)
        latency += self._llt_latency
        entry = self.llt.lookup(vpn)
        if entry is not None:
            self.fill_from_translation(vpn, entry)
            return LocalProbeResult(ProbeOutcome.LLT_HIT, latency, entry)
        return LocalProbeResult(ProbeOutcome.NEEDS_WALK, latency)

    # ------------------------------------------------------------------
    # Peer-side probe (remote request arriving over the mesh)
    # ------------------------------------------------------------------
    def probe_remote(self, vpn: int) -> LocalProbeResult:
        """Answer a peer probe: cuckoo filter, then last-level TLB.

        Remote probes share the filter and LLT with local traffic (the
        paper models shared ports with local priority; the capacity
        interference is what matters and is fully modelled here).
        """
        latency = self._cuckoo_latency
        if not self.cuckoo.contains(vpn):
            return LocalProbeResult(ProbeOutcome.FILTER_NEGATIVE, latency)
        latency += self._llt_latency
        entry = self.llt.lookup(vpn)
        if entry is not None:
            return LocalProbeResult(ProbeOutcome.LLT_HIT, latency, entry)
        return LocalProbeResult(ProbeOutcome.NEEDS_WALK, latency)

    # ------------------------------------------------------------------
    # Fills and installs
    # ------------------------------------------------------------------
    def _fill_l1(self, vpn: int, entry: PageTableEntry) -> None:
        self.l1_vector.insert(vpn, entry)

    def fill_from_translation(self, vpn: int, entry: PageTableEntry) -> None:
        """Install a completed translation into L1 and L2 for reuse."""
        self.l1_vector.insert(vpn, entry)
        self.l2.insert(vpn, entry)

    def install_cached_remote(self, entry: PageTableEntry) -> bool:
        """Cache a remote PTE in the LLT for peer/auxiliary serving.

        Keeps the cuckoo filter consistent: the new VPN is inserted, and if
        installing evicts a *remote* entry its VPN is removed (local VPNs
        stay — the filter also covers the local page table).  Returns False
        when the filter cannot take the insert (effectively full).
        """
        vpn = entry.vpn
        if self.llt.peek(vpn) is not None:
            self.llt.insert(vpn, entry)
            return True
        if not self.cuckoo.contains(vpn) and not self.cuckoo.insert(vpn):
            return False
        self.remote_cached_vpns += 1
        evicted = self.llt.insert(vpn, entry)
        if evicted is not None:
            evicted_vpn, evicted_entry = evicted
            if evicted_entry.owner_gpm != self.gpm_id:
                self.cuckoo.delete(evicted_vpn)
        return True

    def tlb_levels(self) -> dict:
        """Named TLB levels, for per-level metrics export."""
        return {
            "l1v": self.l1_vector,
            "l2tlb": self.l2,
            "llt": self.llt,
        }

    def complete_local_walk(self, vpn: int) -> Optional[PageTableEntry]:
        """Finish a GMMU walk: read the local page table and fill caches.

        Returns None when the filter positive was false (page not local) —
        the request must continue to the remote path.
        """
        entry = self.page_table.walk(vpn)
        if entry is None:
            self.false_positives += 1
            return None
        self.llt.insert(vpn, entry)
        self.fill_from_translation(vpn, entry)
        return entry


def _build_tlb(name: str, config) -> SetAssociativeTLB:
    return SetAssociativeTLB(
        name,
        num_sets=config.num_sets,
        num_ways=config.num_ways,
        latency=config.latency,
    )
