"""The GPU Processing Module.

One GPM bundles the trace-driven issue engine, the translation hierarchy
(L1/L2 TLBs, cuckoo filter, last-level TLB), the GMMU walker pool, an L2
data cache, and an HBM stack.  It resolves translations locally when it
can, merges concurrent misses to the same page (L2 TLB MSHR semantics),
hands unresolvable requests to the active remote-translation policy, and
performs the data access once a translation is in hand.

It also plays the *auxiliary* role HDPAT assigns it: answering peer probes
from the cuckoo filter and last-level TLB, walking its local page table for
pages it owns, and accepting proactive PTE pushes from the IOMMU.
"""

from __future__ import annotations

from collections import deque
from types import MethodType
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.config.gpm import GPMConfig
from repro.core.request import ServedBy
from repro.errors import TranslationTimeoutError
from repro.gpm.cache import DataCache
from repro.gpm.cu import TraceDriver
from repro.mem.address import AddressSpace
from repro.mem.hbm import HBMModel
from repro.mem.page import PageTableEntry
from repro.noc.messages import MessageKind
from repro.obs import NULL_OBS
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.queueing import WalkerPool
from repro.tlb.hierarchy import ProbeOutcome, TranslationHierarchy

Coordinate = Tuple[int, int]


class PendingTranslation:
    """One outstanding translation miss, with merged waiters (MSHR entry)."""

    __slots__ = (
        "vpn", "waiters", "remote_start", "trace_id", "attempts", "epoch",
    )

    def __init__(self, vpn: int) -> None:
        self.vpn = vpn
        self.waiters: List[int] = []
        self.remote_start: Optional[int] = None
        #: Tracing span id (the TranslationRequest id) once the miss goes
        #: remote under an enabled tracer; None otherwise.
        self.trace_id: Optional[int] = None
        #: Fault-path retry bookkeeping: retries already spent, and an
        #: epoch bumped on every retry so stale timeout events can tell
        #: they have been superseded.
        self.attempts = 0
        self.epoch = 0


class GPM(Component):
    """One GPU Processing Module on the wafer.

    Deliberately *not* slotted: there is one GPM per tile (dozens, not
    millions), and tests monkeypatch bound methods on instances (e.g.
    ``remote_translation_complete``), which ``__slots__`` would forbid.
    """

    def __init__(
        self,
        sim: Simulator,
        gpm_id: int,
        coordinate: Coordinate,
        config: GPMConfig,
        address_space: AddressSpace,
        network,
        obs=None,
    ) -> None:
        super().__init__(sim, f"gpm{gpm_id}")
        self.obs = obs if obs is not None else NULL_OBS
        self._tracer = self.obs.tracer if self.obs.tracer.enabled else None
        self._rtt_hist = (
            self.obs.registry.histogram(f"gpm{gpm_id}.rtt")
            if self.obs.registry.enabled
            else None
        )
        self.gpm_id = gpm_id
        self.coordinate = coordinate
        self.config = config
        self.address_space = address_space
        # Hoisted page geometry: the access pipeline splits every vaddr
        # and the method-call round trips through AddressSpace were a
        # measurable slice of the per-access cost.
        self._page_shift = address_space.page_shift
        self._offset_mask = address_space.offset_mask
        self.network = network
        self.hierarchy = TranslationHierarchy(gpm_id, config)
        self.gmmu = WalkerPool(
            sim, f"gpm{gpm_id}.gmmu", config.gmmu_walkers, config.walk_latency
        )
        self.l2_data = DataCache(f"gpm{gpm_id}.l2", config.l2_cache)
        self.hbm = HBMModel(config.hbm_bandwidth, config.hbm_latency)
        self.driver = TraceDriver(
            sim,
            issue_fn=self._begin_access,
            max_outstanding=config.max_outstanding,
            burst=config.issue_width,
        )
        self.driver.on_drain = self._on_drain
        # Late-bound by the wafer builder:
        self.policy = None
        self.on_finished: Optional[Callable[["GPM"], None]] = None
        #: Fault state (:class:`~repro.faults.state.FaultState`) when the
        #: config carries a fault plan; None keeps translation requests on
        #: the historical no-timeout path, byte-identical to the
        #: pre-fault simulator.
        self.faults = None
        # Remote probes share the cuckoo-filter/LLT ports with local
        # traffic, with local translations having priority (§V-A): remote
        # probes serialise on a busy-until port clock, so GPMs sitting on
        # popular routes become probe hotspots.
        self._probe_port_busy = 0
        #: Bumped by every halt().  Scheduled continuations and
        #: data-phase round-trips carry the epoch they were issued under,
        #: so a reply belonging to an access the kill abandoned is
        #: recognisably stale instead of double-completing.
        self._fail_epoch = 0
        # Outstanding translation misses (bounded by the L2 TLB MSHRs).
        self._pending: Dict[int, PendingTranslation] = {}
        self._mshr_capacity = config.l2_tlb.num_mshrs
        #: Accesses that found every MSHR busy, oldest first, each with
        #: the cycle it stalled.  A freed slot wakes exactly one of them.
        self._stalled: Deque[Tuple[int, int]] = deque()
        #: MSHR slots promised to woken accesses still in their re-probe
        #: latency, so a newer miss cannot take the slot from under them.
        self._reserved = 0
        # Results
        self.finish_time: Optional[int] = None
        self.served_by_counts: Dict[ServedBy, int] = {}
        self.rtt_sum = 0
        self.rtt_count = 0

    # ------------------------------------------------------------------
    # Setup / run
    # ------------------------------------------------------------------
    def load_trace(self, trace: List[int], burst: int = None, interval: int = None) -> None:
        if burst is not None:
            self.driver.burst = burst
        if interval is not None:
            self.driver.interval = interval
        self.driver.load(trace)

    def start(self) -> None:
        self.driver.start()

    def _on_drain(self) -> None:
        self.finish_time = self.sim.now
        if self.on_finished is not None:
            self.on_finished(self)

    # ------------------------------------------------------------------
    # Fault timeline: mid-run death and recovery
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Fail-stop: stop issuing and abandon every in-flight access.

        Everything the driver still counts outstanding — queued waiters,
        MSHR-stalled accesses, woken ones holding a reserved MSHR slot,
        and accesses out in the data phase whose replies may never arrive
        (a response to a dead module is a dead letter) — is abandoned and
        rewound, so a later resume() re-issues the lost work from a clean
        ledger, with no stall queue or reservation left behind.
        Bumping ``_fail_epoch`` invalidates every already-scheduled
        continuation of those accesses: a late miss check, HBM
        completion, or data response from before the kill is dropped
        instead of double-completing.
        """
        self._fail_epoch += 1
        self.driver.halt()
        abandoned = self.driver.outstanding
        if self._tracer is not None:
            for pending in self._pending.values():
                if pending.trace_id is not None:
                    self._tracer.async_end(
                        self.sim.now, "remote_translation",
                        cat="translation", track=self.name,
                        span_id=pending.trace_id,
                        args={"served_by": "abandoned", "vpn": pending.vpn},
                    )
        self._pending.clear()
        self._stalled.clear()
        self._reserved = 0
        if abandoned:
            self.bump("halt_abandoned_accesses", abandoned)
            self.driver.abandon(abandoned)

    def resume(self) -> None:
        """Hot re-attach: the remaining trace resumes issuing."""
        self.driver.resume()

    # ------------------------------------------------------------------
    # Access pipeline: translate, then touch data
    # ------------------------------------------------------------------
    def _begin_access(self, vaddr: int, reserved: bool = False) -> bool:
        """Probe the local hierarchy for ``vaddr``; True on a local hit.

        ``reserved`` marks a woken stalled access that holds an MSHR
        reservation across its re-probe latency.
        """
        vpn = vaddr >> self._page_shift
        epoch = self._fail_epoch
        result = self.hierarchy.probe_local(vpn)
        if result.entry is not None:
            self._count(_LOCAL_OUTCOME[result.outcome])
            self.sim.schedule(
                result.latency,
                lambda: self._data_phase(vaddr, result.entry, epoch),
            )
            return True
        needs_walk = result.outcome is ProbeOutcome.NEEDS_WALK
        self.sim.schedule(
            result.latency,
            lambda: self._translation_miss(
                vaddr, vpn, needs_walk, epoch, reserved
            ),
        )
        return False

    def _translation_miss(
        self, vaddr: int, vpn: int, needs_walk: bool, epoch: int,
        reserved: bool = False,
    ) -> None:
        if epoch != self._fail_epoch:
            # The module died between issue and the miss check; halt()
            # already abandoned this access (and dropped every
            # reservation), so the stale continuation just evaporates.
            self.bump("halted_drops")
            return
        pending = self._pending.get(vpn)
        if pending is not None:
            pending.waiters.append(vaddr)
            self.bump("merged_misses")
            if reserved:
                # The reserved slot went unused: pass it on.
                self._reserved -= 1
                self._wake_stalled()
            return
        if reserved:
            self._reserved -= 1
        elif len(self._pending) + self._reserved >= self._mshr_capacity:
            self._stalled.append((vaddr, self.sim.now))
            self.bump("mshr_stalls")
            return
        pending = PendingTranslation(vpn)
        pending.waiters.append(vaddr)
        self._pending[vpn] = pending
        if self._tracer is not None:
            self._tracer.instant(
                self.sim.now, "tlb_miss", cat="translation", track=self.name,
                args={"vpn": vpn, "needs_walk": needs_walk},
            )
        if needs_walk:
            self.gmmu.submit(vpn, self._local_walk_done)
        else:
            self._go_remote(pending)

    def _local_walk_done(self, vpn: int) -> None:
        """A finished local walk: frees its walker first and starts queued
        walks last, on every path."""
        gmmu = self.gmmu
        gmmu.busy_walkers -= 1
        pending = self._pending.get(vpn)
        if pending is None:  # resolved meanwhile (a PTE push, or a halt)
            gmmu.dispatch()
            return
        entry = self.hierarchy.complete_local_walk(vpn)
        if self._tracer is not None:
            self._tracer.instant(
                self.sim.now, "gmmu_walk_done", cat="translation",
                track=self.name, args={"vpn": vpn, "hit": entry is not None},
            )
        if entry is not None:
            self._translation_done(vpn, entry, ServedBy.LOCAL_WALK)
        else:
            # Cuckoo-filter false positive: the full local path was paid
            # before discovering the page is remote (§II-B outcome 3);
            # the hierarchy counts it (``gpmN.filter.false_positives``).
            self._go_remote(pending)
        gmmu.dispatch()

    def _go_remote(self, pending: PendingTranslation) -> None:
        pending.remote_start = self.sim.now
        self.bump("remote_translations")
        self.policy.start_remote(self, pending)
        if self.faults is not None:
            self._arm_translation_timeout(pending)

    # ------------------------------------------------------------------
    # Fault path: end-to-end timeout + bounded deterministic retry
    # ------------------------------------------------------------------
    def _arm_translation_timeout(self, pending: PendingTranslation) -> None:
        vpn, epoch = pending.vpn, pending.epoch
        self.sim.schedule(
            self.faults.plan.timeout_cycles,
            lambda: self._translation_timeout(vpn, epoch),
        )

    def _translation_timeout(self, vpn: int, epoch: int) -> None:
        pending = self._pending.get(vpn)
        if pending is None or pending.epoch != epoch:
            return  # resolved, or superseded by a newer attempt
        self.faults.bump("timeouts")
        if self.faults.retry.exhausted(pending.attempts):
            raise TranslationTimeoutError(
                f"{self.name}: translation of VPN {vpn:#x} timed out "
                f"after {pending.attempts} retrie(s); giving up at cycle "
                f"{self.sim.now}"
            )
        pending.attempts += 1
        pending.epoch += 1
        self.faults.bump("retries")
        backoff = self.faults.retry.delay_cycles_for(pending.attempts - 1)
        retry_epoch = pending.epoch
        self.sim.schedule(backoff, lambda: self._retry_remote(vpn, retry_epoch))

    def _retry_remote(self, vpn: int, epoch: int) -> None:
        pending = self._pending.get(vpn)
        if pending is None or pending.epoch != epoch:
            return  # resolved during the backoff
        self.policy.retry_remote(self, pending)
        self._arm_translation_timeout(pending)

    def _translation_done(
        self, vpn: int, entry: PageTableEntry, served_by: ServedBy
    ) -> None:
        pending = self._pending.pop(vpn, None)
        if pending is None:
            return  # late duplicate (second probe response, stale redirect)
        self._count(served_by)
        if pending.remote_start is not None:
            rtt = self.sim.now - pending.remote_start
            self.rtt_sum += rtt
            self.rtt_count += 1
            if self._rtt_hist is not None:
                self._rtt_hist.observe(rtt)
        if pending.trace_id is not None and self._tracer is not None:
            self._tracer.async_end(
                self.sim.now, "remote_translation", cat="translation",
                track=self.name, span_id=pending.trace_id,
                args={"served_by": served_by.value, "vpn": vpn},
            )
        self.hierarchy.fill_from_translation(vpn, entry)
        for vaddr in pending.waiters:
            self._data_phase(vaddr, entry)
        self._wake_stalled()

    def _wake_stalled(self) -> None:
        """Hand free MSHR slots to stalled accesses, oldest first.

        Each woken access re-probes once, holding a reservation until its
        miss check; one that now hits locally never takes the slot, so
        the next stalled access is woken in its place.
        """
        stalled = self._stalled
        while (
            stalled
            and len(self._pending) + self._reserved < self._mshr_capacity
        ):
            vaddr, stalled_at = stalled.popleft()
            self.bump("mshr_wakeups")
            self.bump("mshr_stall_cycles", self.sim.now - stalled_at)
            if not self._begin_access(vaddr, reserved=True):
                self._reserved += 1  # held until its miss check

    # ------------------------------------------------------------------
    # Remote-translation completion entry points
    # ------------------------------------------------------------------
    def remote_translation_complete(
        self, vpn: int, entry: PageTableEntry, served_by: ServedBy
    ) -> None:
        """Called when a translation response reaches this GPM."""
        self._translation_done(vpn, entry, served_by)

    def accept_pte_pushes(self, entries: List[PageTableEntry]) -> None:
        """Install pushed PTEs in order (auxiliary caching / proactive
        delivery); the mesh handler for PTE_PUSH, and the install path of
        the extras riding on a translation response.

        If a request for one of the pages is currently waiting on the
        remote path, its push satisfies it immediately — the "catch up to
        recently completed translations" effect redirection is built
        around.
        """
        self.bump("pte_pushes_received", len(entries))
        for entry in entries:
            self.hierarchy.install_cached_remote(entry)
            pending = self._pending.get(entry.vpn)
            if pending is not None and pending.remote_start is not None:
                served = ServedBy.PROACTIVE if entry.prefetched else ServedBy.PEER
                self._translation_done(entry.vpn, entry, served)

    # ------------------------------------------------------------------
    # Auxiliary role: answer peer probes
    # ------------------------------------------------------------------
    def serve_peer_probe(
        self, vpn: int, on_done: Callable[[Optional[PageTableEntry]], None]
    ) -> None:
        """Probe filter + last-level TLB for a peer; walk if we own the page.

        ``on_done`` fires after the probe latency with the entry or None.
        """
        self.bump("peer_probes_served")
        port_wait = max(0, self._probe_port_busy - self.sim.now)
        self._probe_port_busy = self.sim.now + port_wait + PROBE_PORT_OCCUPANCY
        if port_wait:
            self.bump("probe_port_wait_cycles", port_wait)
        result = self.hierarchy.probe_remote(vpn)
        latency = port_wait + result.latency
        if result.entry is not None:
            self.bump("peer_probe_hits")
            self.sim.schedule(latency, lambda: on_done(result.entry))
            return
        if (
            result.outcome is ProbeOutcome.NEEDS_WALK
            and self.hierarchy.page_table.contains(vpn)
        ):
            # We are the page's home: resolve it with our own GMMU walkers
            # (sharing them with local traffic, as §V-A's interference
            # modelling requires).
            def _walk_then(vpn_walked: int) -> None:
                self.gmmu.busy_walkers -= 1
                on_done(self.hierarchy.complete_local_walk(vpn_walked))
                self.gmmu.dispatch()

            self.sim.schedule(
                latency, lambda: self.gmmu.submit(vpn, _walk_then)
            )
            return
        self.sim.schedule(latency, lambda: on_done(None))

    # ------------------------------------------------------------------
    # Data phase
    # ------------------------------------------------------------------
    def _data_phase(
        self, vaddr: int, entry: PageTableEntry, epoch: int = None
    ) -> None:
        if epoch is None:
            epoch = self._fail_epoch
        elif epoch != self._fail_epoch:
            # Local-hit continuation of an access the kill abandoned.
            self.bump("halted_drops")
            return
        offset = vaddr & self._offset_mask
        owner_gpm = entry.owner_gpm
        if (
            self.faults is not None
            and self.faults.dynamic
            and not self.faults.gpm_alive(owner_gpm)
        ):
            # Stale in-flight translation: the owner died (and its pages
            # were re-homed) after this entry was resolved.  Follow the
            # same deterministic remap the kill applied.
            owner_gpm = self.faults.remap_owner(owner_gpm)
            self.bump("dead_owner_data_redirects")
        # DataCache.line_key, inlined: 64-byte lines.
        key = (owner_gpm << 60) | (entry.pfn << 16) | (offset >> 6)
        if self.l2_data.access(key):
            self.sim.schedule(
                self.config.l2_cache.latency,
                lambda: self._complete_if_current(epoch),
            )
            return
        if owner_gpm == self.gpm_id:
            done_at = self.hbm.access(self.sim.now)
            self.sim.schedule_at(
                done_at, lambda: self._complete_if_current(epoch)
            )
            return
        self.network.send(
            MessageKind.DATA_REQ, self.coordinate,
            self.policy.coord_of_gpm(owner_gpm), (key, self.coordinate, epoch),
        )
        self.bump("remote_data_accesses")

    def handle_data_request(self, request: Tuple[int, Coordinate, int]) -> None:
        """Serve a remote cacheline read from our L2 or HBM; the reply
        carries the requester's epoch back."""
        key, requester_coord, epoch = request
        if self.l2_data.probe(key):
            latency = self.config.l2_cache.latency
        else:
            latency = self.hbm.access(self.sim.now) - self.sim.now
        self.sim.schedule(
            latency,
            lambda: self.network.send(
                MessageKind.DATA_RESP, self.coordinate, requester_coord, epoch
            ),
        )

    def _complete_if_current(self, epoch: int) -> None:
        """Complete one access (L2 data hit, local HBM read or a
        DATA_RESP) unless a kill abandoned it."""
        if epoch != self._fail_epoch:
            # The access this completion belongs to was abandoned by a
            # kill (and will be re-issued after recovery); completing it
            # now would double-count against the rewound trace ledger.
            self.bump("stale_completions")
            return
        # Inlined bump(): this runs once per access and the method-call
        # overhead was visible in profiles.
        stats = self.stats
        stats["accesses_completed"] = stats.get("accesses_completed", 0) + 1
        self.driver.complete_one()

    # ------------------------------------------------------------------
    # Mesh handlers
    # ------------------------------------------------------------------
    def mesh_handlers(self) -> Dict[MessageKind, Callable]:
        """The handler per message kind this module receives, each called
        with the payload; peer probes and redirects go to the policy,
        bound to this module."""
        return {
            MessageKind.DATA_REQ: self.handle_data_request,
            MessageKind.DATA_RESP: self._complete_if_current,
            MessageKind.TRANSLATION_RESP: self.handle_translation_response,
            MessageKind.PTE_PUSH: self.accept_pte_pushes,
            MessageKind.PAGE_MIGRATION: self.receive_migrated_pages,
            MessageKind.PEER_PROBE: MethodType(self.policy.on_peer_probe, self),
            MessageKind.REDIRECT: MethodType(self.policy.on_redirect, self),
        }

    def handle_translation_response(self, response: tuple) -> None:
        vpn, entry, served_by, extras = response
        if extras:
            self.accept_pte_pushes(extras)
        # Looked up on the instance, so a test's per-instance override
        # of remote_translation_complete sees every response.
        self.remote_translation_complete(vpn, entry, served_by)

    def receive_migrated_pages(self, vpns) -> None:
        """A page-migration copy landed.  The pages were re-homed when the
        migration started, so the arrival only ends the copy's transit."""

    # ------------------------------------------------------------------
    # Stats helpers
    # ------------------------------------------------------------------
    def _count(self, served_by: ServedBy) -> None:
        self.served_by_counts[served_by] = (
            self.served_by_counts.get(served_by, 0) + 1
        )

    def mean_rtt(self) -> float:
        return self.rtt_sum / self.rtt_count if self.rtt_count else 0.0


#: Cycles a remote probe occupies the shared filter/LLT port.  The filter
#: and LLT are pipelined SRAMs, but remote probes yield to local traffic
#: (§V-A's shared ports with local priority), so each occupies the port
#: for a few cycles and hot holders become throughput-bound.
PROBE_PORT_OCCUPANCY = 4

_LOCAL_OUTCOME = {
    ProbeOutcome.L1_HIT: ServedBy.LOCAL_L1,
    ProbeOutcome.L2_HIT: ServedBy.LOCAL_L2,
    ProbeOutcome.LLT_HIT: ServedBy.LOCAL_LLT,
}
