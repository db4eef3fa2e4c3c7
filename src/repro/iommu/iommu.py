"""The central IOMMU (Figure 12).

Requests arrive over the mesh and flow through:

1. the **redirection table** (HDPAT, §IV-F) — a hit bounces the request to
   the auxiliary GPM that recently received the PTE, skipping the walk; or
   the **IOMMU-side TLB** in the Figure 19 comparison variant;
2. the **pre-queue** — an unbounded FIFO where requests wait for
   PW-queue space; its occupancy is the "buffer pressure" of Figure 4 and
   its wait the "pre-queue latency" of Figure 3;
3. the **PW-queue + walker pool** — Table I: 16 walkers, 500-cycle walks.

On walk completion the IOMMU optionally (a) *revisits* the PW-queue and
pre-queue for identical pending VPNs and answers them without extra walks,
(b) walks ahead ``prefetch_degree - 1`` sequential PTEs (proactive
page-entry delivery, §IV-G), and (c) pushes hot PTEs to the auxiliary GPMs
chosen by the active placement policy, updating the redirection table.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.config.hdpat import HDPATConfig
from repro.config.iommu import IOMMUConfig
from repro.core.request import ServedBy, TranslationRequest
from repro.errors import AddressError
from repro.iommu.redirection import RedirectionTable
from repro.mem.page import PageTableEntry
from repro.mem.page_table import GlobalPageTable
from repro.noc.messages import MessageKind
from repro.obs import NULL_OBS
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.queueing import WalkerPool
from repro.stats.latency import LatencyBreakdown
from repro.stats.locality import SpatialLocalityAnalyzer
from repro.stats.reuse import ReuseDistanceAnalyzer, TranslationCountAnalyzer
from repro.stats.timeseries import WindowedCounter
from repro.tlb.tlb import SetAssociativeTLB

Coordinate = Tuple[int, int]

#: Cycles to fetch one additional page-table leaf line during prefetch.
LEAF_FETCH_CYCLES = 100


class IOMMU(Component):
    """The CPU-hosted IOMMU with all HDPAT-side mechanisms."""

    def __init__(
        self,
        sim: Simulator,
        coordinate: Coordinate,
        config: IOMMUConfig,
        hdpat: HDPATConfig,
        network,
        obs=None,
    ) -> None:
        super().__init__(sim, "iommu")
        self.obs = obs if obs is not None else NULL_OBS
        self._tracer = self.obs.tracer if self.obs.tracer.enabled else None
        if self.obs.registry.enabled:
            registry = self.obs.registry
            self._lat_hists = {
                phase: registry.histogram(f"iommu.latency.{phase}")
                for phase in ("pre_queue", "ptw_queue", "ptw")
            }
        else:
            self._lat_hists = None
        self.coordinate = coordinate
        self.config = config
        self.hdpat = hdpat
        self.network = network
        self.page_table = GlobalPageTable()
        self.walkers = WalkerPool(
            sim, "iommu.walkers", config.num_walkers, config.walk_latency
        )
        self.front: Deque[TranslationRequest] = deque()  # the pre-queue
        if sim.sanitizer is not None:
            sim.sanitizer.watch_buffer("iommu.pre_queue", self.front.__len__)
        self.redirection: Optional[RedirectionTable] = (
            RedirectionTable(config.redirection_entries)
            if hdpat.use_redirection and config.iommu_tlb is None
            else None
        )
        # Figure 19 variant: a conventional TLB replaces the redirection
        # table, with MSHRs that throttle concurrency when exhausted.  One
        # MSHR per in-flight VPN: ``_tlb_waiters`` keys are the occupied
        # registers, its lists the requests merged into each.
        self.tlb: Optional[SetAssociativeTLB] = None
        self._tlb_waiters: Dict[int, List[TranslationRequest]] = {}
        self._tlb_blocked: Deque[TranslationRequest] = deque()
        if config.iommu_tlb is not None:
            self.tlb = SetAssociativeTLB(
                "iommu.tlb",
                config.iommu_tlb.num_sets,
                config.iommu_tlb.num_ways,
                config.iommu_tlb.latency,
            )
        #: Request ids currently queued or walking.  A fault-duplicated
        #: TRANSLATION_REQ delivers the *same mutable request object*
        #: twice; letting the copy re-enter would overwrite the original's
        #: arrival/enqueue bookkeeping mid-walk (negative latencies).
        self._pipeline_ids: set = set()
        # Late-bound by the wafer builder:
        self.policy = None
        #: Optional page-migration engine (extension; observes walks).
        self.migration = None
        # Trace analyzers (observations O3/O4, Figures 3/4/6/7/8/13).
        self.translation_counts = TranslationCountAnalyzer()
        self.reuse_distance = ReuseDistanceAnalyzer()
        self.spatial_locality = SpatialLocalityAnalyzer()
        self.breakdown = LatencyBreakdown(["pre_queue", "ptw_queue", "ptw"])
        # Fine-grained bins; Figure 13 re-bins to the paper's 100k-cycle
        # windows (or proportionally narrower ones for scaled runs).
        self.served_window = WindowedCounter(window_cycles=2_000)
        self.prefetch_pushed = 0

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def receive_request(self, request: TranslationRequest) -> None:
        """Entry point for a translation request arriving at the CPU (the
        TRANSLATION_REQ handler)."""
        if request.request_id in self._pipeline_ids:
            # A duplicated copy of a request already in flight here; the
            # original will answer it.
            self.bump("duplicate_arrivals")
            return
        request.iommu_arrival = self.sim.now
        self.bump("requests")
        self.translation_counts.record(request.vpn)
        self.reuse_distance.record(request.vpn)
        self.spatial_locality.record(request.vpn, stream_id=request.requester_gpm)
        if self._tracer is not None:
            self._tracer.async_instant(
                self.sim.now, "iommu.arrival", cat="translation",
                track="iommu", span_id=request.request_id,
                args={"vpn": request.vpn},
            )
        if self.tlb is not None:
            self._receive_with_tlb(request)
            return
        if self.redirection is not None and not request.no_redirect:
            target_gpm = self.redirection.lookup(request.vpn)
            if target_gpm is not None and not self.policy.gpm_alive(target_gpm):
                # The table still names a GPM the fault plan killed: fall
                # through to the full walk instead of bouncing the request
                # at a tile that can never answer.
                self.bump("dead_redirects")
                target_gpm = None
            if target_gpm is not None:
                self.bump("redirects")
                if self._tracer is not None:
                    self._tracer.async_instant(
                        self.sim.now, "iommu.redirect", cat="translation",
                        track="iommu", span_id=request.request_id,
                        args={"target_gpm": target_gpm},
                    )
                target = self.policy.coord_of_gpm(target_gpm)
                self.network.send(
                    MessageKind.REDIRECT, self.coordinate, target, request
                )
                return
        self._enqueue(request)

    def _enqueue(self, request: TranslationRequest) -> None:
        self._pipeline_ids.add(request.request_id)
        if self.walkers.queue_length < self.config.pw_queue_capacity:
            self._submit(request)
        else:
            self.front.append(request)

    def _submit(self, request: TranslationRequest) -> None:
        request.pw_enqueue = self.sim.now
        self.walkers.submit(request, self._walk_done)

    # ------------------------------------------------------------------
    # Walk completion
    # ------------------------------------------------------------------
    def _walk_done(self, request: TranslationRequest) -> None:
        """A finished walk: frees its walker first and starts queued walks
        last, so the revisit can coalesce the PW-queue head first."""
        walkers = self.walkers
        walkers.busy_walkers -= 1
        entry = self.page_table.walk(request.vpn)
        if entry is None:
            raise AddressError(
                f"IOMMU walk for unmapped VPN {request.vpn:#x} "
                f"from GPM {request.requester_gpm}"
            )
        entry.touch()
        self.bump("walks")
        self.served_window.record(self.sim.now)
        ptw = walkers.service_cycles
        started = self.sim.now - ptw
        pre_queue = request.pw_enqueue - request.iommu_arrival
        ptw_queue = started - request.pw_enqueue
        self.breakdown.record(pre_queue=pre_queue, ptw_queue=ptw_queue, ptw=ptw)
        if self._lat_hists is not None:
            self._lat_hists["pre_queue"].observe(pre_queue)
            self._lat_hists["ptw_queue"].observe(ptw_queue)
            self._lat_hists["ptw"].observe(ptw)
        if self._tracer is not None:
            self._tracer.complete(
                started, ptw, "iommu.walk",
                cat="iommu", track="iommu", span_id=request.request_id,
                args={
                    "vpn": request.vpn,
                    "pre_queue": pre_queue,
                    "ptw_queue": ptw_queue,
                },
            )
        self._deliver_and_push(request, entry)
        if self.hdpat.pw_queue_revisit:
            self._revisit(request.vpn, entry)
        if self.migration is not None:
            self.migration.observe_walk(request.vpn, request.requester_gpm)
        front = self.front
        while front and walkers.queue_length < self.config.pw_queue_capacity:
            self._submit(front.popleft())
        walkers.dispatch()

    def _deliver_and_push(
        self, request: TranslationRequest, entry: PageTableEntry
    ) -> None:
        targets = self.policy.push_targets(request.vpn) if self.policy else []
        pushes: Dict[int, List[PageTableEntry]] = {}
        # Every holder of a pushed PTE shares one snapshot of it, taken
        # once per walk; no receiver mutates a pushed entry.
        holders: List[int] = []
        # Route/concentric/distributed caching: install the response at
        # every GPM the request probed — unconditionally, which is exactly
        # the duplication/thrashing §IV-B criticises.
        if self.policy is not None and self.policy.install_at_probed:
            holders.extend(request.probed_gpms)
        # Selective demand push: only pages hot enough to earn peer space.
        if targets and entry.access_count >= self.hdpat.push_threshold:
            holders.extend(targets)
            if self.redirection is not None:
                self.redirection.update(entry.vpn, targets[0])
        if holders:
            pushed = entry.copy_for_push()
            for holder in holders:
                pushes.setdefault(holder, []).append(pushed)
        # Proactive page-entry delivery (§IV-G).
        prefetch_delay = 0
        extras = None
        extra = self.hdpat.prefetch_extra
        if extra > 0:
            neighbors = [
                self.page_table.lookup(vpn)
                for vpn in range(request.vpn + 1, request.vpn + 1 + extra)
            ]
            neighbors = [n for n in neighbors if n is not None]
            if neighbors:
                prefetch_delay = (
                    self.page_table.extra_leaf_lines(request.vpn, extra)
                    * LEAF_FETCH_CYCLES
                )
                # Prefetched PTEs go to one auxiliary holder — "the inner
                # or middle layers" (§IV-G) — not to every layer.
                push_to = targets[:1] or [request.requester_gpm]
                # Prefetched PTEs ride back with the demand response too,
                # so a requester streaming sequential pages catches up
                # without a second IOMMU round trip.
                extras = [n.copy_for_push(prefetched=True) for n in neighbors]
                self.prefetch_pushed += len(extras)
                for target in push_to:
                    pushes.setdefault(target, []).extend(extras)
                if self.redirection is not None and targets:
                    # Redirection entries name concentric-layer holders
                    # only (§IV-F); with no caching layers there is no one
                    # to redirect to.
                    self.redirection.update(request.vpn + 1, targets[0])
                if self.tlb is not None:
                    # The Figure 19 TLB variant stores prefetched PTEs in
                    # the IOMMU TLB — "proactive page-entry delivery
                    # frequently flushes TLB entries" (§V-E) is exactly
                    # this pressure.
                    for neighbor in neighbors:
                        self.tlb.insert(neighbor.vpn, neighbor)
                # The walker holds these PTEs in hand: answer PW-queue
                # requests for them directly (same revisit pass as §IV-F).
                prefetched_vpns = {n.vpn for n in neighbors}
                caught = self.walkers.drain_vpns(prefetched_vpns)
                by_vpn = {n.vpn: n for n in neighbors}
                for match in caught:
                    self.bump("prefetch_caught")
                    self.respond(match, by_vpn[match.vpn], ServedBy.PROACTIVE)
        for target, entries in pushes.items():
            self._send_push(target, entries, prefetch_delay)
        self.respond(request, entry, ServedBy.IOMMU, extras=extras)

    def _send_push(
        self, target_gpm: int, entries: List[PageTableEntry], delay: int
    ) -> None:
        def _send() -> None:
            self.network.send(
                MessageKind.PTE_PUSH, self.coordinate,
                self.policy.coord_of_gpm(target_gpm), entries, 16 + 16 * len(entries),
            )

        self.bump("pte_pushes", len(entries))
        if delay:
            self.sim.schedule(delay, _send)
        else:
            _send()

    def _revisit(self, vpn: int, entry: PageTableEntry) -> None:
        """Answer identical pending requests without extra walks (§IV-F).

        Only the PW-queue is revisited — requests still waiting in the
        pre-queue buffer are not scanned, which is exactly why the paper
        says the PW-queue size bounds this mechanism's benefit (§V-B).
        """
        matches = self.walkers.drain_vpns((vpn,))
        for match in matches:
            self.bump("coalesced")
            self.served_window.record(self.sim.now)
            self.respond(match, entry, ServedBy.IOMMU)

    # ------------------------------------------------------------------
    # Figure 19 variant: conventional TLB at the IOMMU
    # ------------------------------------------------------------------
    def _receive_with_tlb(self, request: TranslationRequest) -> None:
        if self._tlb_blocked:
            # The TLB front end is backpressured: once MSHRs fill, ALL
            # later requests stall behind the blocked queue in order —
            # even ones whose PFN already sits in the TLB ("translation
            # requests cannot be responded to immediately, especially if
            # the proactive delivery has prefetched the corresponding
            # PFN", §V-E).  This is the concurrency cliff that makes the
            # MSHR-free redirection table the better structure.
            self._tlb_blocked.append(request)
            self.bump("tlb_mshr_blocked")
            return
        self._tlb_process(request)

    def _tlb_process(self, request: TranslationRequest) -> bool:
        """Process one request at the TLB head; False if it must block."""
        entry = self.tlb.lookup(request.vpn)
        if entry is not None:
            self.bump("tlb_hits")
            self.sim.schedule(
                self.tlb.latency,
                lambda: self.respond(request, entry, ServedBy.IOMMU),
            )
            return True
        waiters = self._tlb_waiters.get(request.vpn)
        if waiters is not None:
            waiters.append(request)  # merge into the in-flight MSHR
            return True
        if len(self._tlb_waiters) >= self.config.iommu_tlb.num_mshrs:
            self._tlb_blocked.append(request)
            self.bump("tlb_mshr_blocked")
            return False
        self._tlb_waiters[request.vpn] = []
        self._enqueue(request)
        return True

    def _tlb_walk_completed(self, vpn: int, entry: PageTableEntry) -> None:
        self.tlb.insert(vpn, entry)
        waiters = self._tlb_waiters.pop(vpn, [])
        for waiter in waiters:
            self.respond(waiter, entry, ServedBy.IOMMU)
        # Drain the blocked queue in arrival order until an MSHR-needing
        # miss blocks it again.
        while self._tlb_blocked:
            head = self._tlb_blocked.popleft()
            if not self._tlb_process(head):
                # _tlb_process re-appended it to the tail; restore order.
                self._tlb_blocked.rotate(1)
                break

    # ------------------------------------------------------------------
    # Egress
    # ------------------------------------------------------------------
    def respond(
        self,
        request: TranslationRequest,
        entry: PageTableEntry,
        served_by: ServedBy,
        extras=None,
    ) -> None:
        self._pipeline_ids.discard(request.request_id)
        if self.tlb is not None and request.vpn in self._tlb_waiters:
            self._tlb_walk_completed(request.vpn, entry)
        if self._tracer is not None:
            self._tracer.async_instant(
                self.sim.now, "iommu.respond", cat="translation",
                track="iommu", span_id=request.request_id,
                args={"served_by": served_by.value},
            )
        size = 16 + 16 * len(extras) if extras else None
        self.network.send(
            MessageKind.TRANSLATION_RESP, self.coordinate, request.requester_coord,
            (request.vpn, entry, served_by, extras), size,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def buffer_pressure(self) -> int:
        """Requests waiting anywhere before a walker (Figure 4's metric)."""
        return len(self.front) + self.walkers.queue_length
