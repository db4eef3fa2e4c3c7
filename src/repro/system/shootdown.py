"""TLB shootdown for memory frees.

The paper excludes page migration, so the only shootdown trigger left is
freeing allocated memory (§II-A: "The only necessity of TLB shootdown is
freeing allocated memory, which has a negligible impact").  This module
implements that path so frees are *correct* — every stale copy of an
unmapped translation disappears from the wafer — and so the negligible-
impact claim is measurable (see ``figures/test_ext_ablations.py``).

Protocol: the CPU removes the mappings from the global page table and the
owners' local tables, then broadcasts an invalidation to every GPM; each
GPM scrubs its TLB levels, last-level TLB, and cuckoo filter, and acks.
The shootdown completes when all acks return (cost: one mesh round trip to
the farthest GPM plus per-entry scrub cycles).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

#: Cycles a GPM spends scrubbing one VPN from its translation structures.
SCRUB_CYCLES_PER_VPN = 2


class ShootdownStats:
    """Counters for one wafer's shootdown activity."""

    def __init__(self) -> None:
        self.shootdowns = 0
        self.vpns_invalidated = 0
        self.stale_entries_scrubbed = 0
        self.total_latency = 0

    def mean_latency(self) -> float:
        return self.total_latency / self.shootdowns if self.shootdowns else 0.0


def shootdown(
    wafer,
    vpns: Iterable[int],
    on_complete: Optional[Callable[[int], None]] = None,
) -> ShootdownStats:
    """Unmap ``vpns`` wafer-wide and broadcast TLB invalidations.

    Must be called between kernels (no in-flight translations for the
    freed pages — the driver quiesces before freeing, as real runtimes
    do).  Returns the wafer's shootdown statistics; ``on_complete`` fires
    with the completion cycle once every GPM has acked.
    """
    vpn_list: List[int] = list(vpns)
    stats = _stats_of(wafer)
    stats.shootdowns += 1
    stats.vpns_invalidated += len(vpn_list)
    start = wafer.sim.now

    # 1. CPU side: global page table, redirection table.
    for vpn in vpn_list:
        entry = wafer.iommu.page_table.lookup(vpn)
        if entry is None:
            continue
        wafer.iommu.page_table.remove(vpn)
        if wafer.iommu.redirection is not None:
            wafer.iommu.redirection.invalidate(vpn)
        if wafer.iommu.tlb is not None:
            wafer.iommu.tlb.invalidate(vpn)
        # Owner's local page table drops the mapping.
        owner = wafer.gpms[entry.owner_gpm]
        if owner.hierarchy.page_table.contains(vpn):
            owner.hierarchy.page_table.remove(vpn)

    # 2. Broadcast invalidations; each GPM scrubs and acks.
    pending_acks = wafer.num_gpms
    completion_time = start

    def _gpm_scrub(gpm) -> int:
        scrubbed = 0
        for vpn in vpn_list:
            scrubbed += gpm.hierarchy.l1_vector.invalidate(vpn)
            scrubbed += gpm.hierarchy.l2.invalidate(vpn)
            if gpm.hierarchy.llt.invalidate(vpn):
                scrubbed += 1
            # The filter tracks local pages and cached remote PTEs alike;
            # both kinds of membership are now stale.
            if gpm.hierarchy.cuckoo.delete(vpn):
                scrubbed += 1
        return scrubbed

    def _ack(finish_time: int) -> None:
        nonlocal pending_acks, completion_time
        pending_acks -= 1
        completion_time = max(completion_time, finish_time)
        if pending_acks == 0:
            stats.total_latency += completion_time - start
            if on_complete is not None:
                on_complete(completion_time)

    for gpm in wafer.gpms:
        hops = wafer.topology.manhattan(
            wafer.topology.cpu_coordinate, gpm.coordinate
        )
        travel = hops * wafer.config.noc.link_latency
        scrub = SCRUB_CYCLES_PER_VPN * len(vpn_list)
        stats.stale_entries_scrubbed += _gpm_scrub(gpm)
        # Ack arrives after request travel + scrub + response travel; the
        # functional scrub above is applied eagerly (the driver quiesced).
        wafer.sim.schedule(travel * 2 + scrub, lambda: _ack(wafer.sim.now))
    return stats


def _stats_of(wafer) -> ShootdownStats:
    stats = getattr(wafer, "shootdown_stats", None)
    if stats is None:
        stats = ShootdownStats()
        wafer.shootdown_stats = stats
    return stats
