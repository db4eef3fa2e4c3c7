"""The assembled wafer-scale GPU.

Builds every component from a :class:`~repro.config.SystemConfig`, wires
the mesh handlers, binds the translation policy, and exposes the install /
load / run lifecycle the benchmark runner drives.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.config.system import SystemConfig
from repro.core.layers import ConcentricLayout
from repro.core.policy import build_policy
from repro.errors import ConfigurationError
from repro.faults import FaultState
from repro.gpm.gpm import GPM
from repro.iommu.iommu import IOMMU
from repro.mem.address import AddressSpace
from repro.mem.page import PageTableEntry
from repro.noc.messages import MessageKind
from repro.noc.network import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.obs import DEFAULT_SAMPLE_PERIOD, NULL_OBS, Observability
from repro.sim.engine import Simulator

Coordinate = Tuple[int, int]


class WaferScaleGPU:
    """A fully wired wafer: simulator, mesh, GPMs, IOMMU, and policy."""

    def __init__(
        self,
        config: SystemConfig,
        obs: Optional[Observability] = None,
        sanitize: Union[bool, str] = False,
        sample_buffer_every: Optional[int] = None,
    ) -> None:
        self.config = config
        self.obs = obs if obs is not None else NULL_OBS
        self.sim = Simulator(profiler=self.obs.profiler, sanitize=sanitize)
        self.topology = MeshTopology(config.mesh_width, config.mesh_height)
        #: Fault state derived from the config's plan; None (the common
        #: case) keeps every downstream component on its historical,
        #: byte-identical no-fault path.
        self.faults: Optional[FaultState] = (
            FaultState(config.faults, self.topology)
            if config.faults is not None and not config.faults.is_empty
            else None
        )
        self.network = MeshNetwork(
            self.sim,
            self.topology,
            link_latency=config.noc.link_latency,
            link_bandwidth_bytes_per_sec=config.noc.link_bandwidth,
            obs=self.obs,
            faults=self.faults,
        )
        self.address_space = AddressSpace(config.page_size)
        effective_layers = min(
            config.hdpat.num_layers, len(self.topology.complete_rings())
        )
        self.layout = ConcentricLayout(self.topology, effective_layers)
        self.policy = build_policy(config.hdpat)
        self.iommu = IOMMU(
            self.sim,
            self.topology.cpu_coordinate,
            config.iommu,
            config.hdpat,
            self.network,
            obs=self.obs,
        )
        self.gpms: List[GPM] = []
        self._gpm_id_at: Dict[Coordinate, int] = {}
        for gpm_id, tile in enumerate(self.topology.gpm_tiles):
            gpm = GPM(
                self.sim,
                gpm_id,
                tile.coordinate,
                config.gpm,
                self.address_space,
                self.network,
                obs=self.obs,
            )
            gpm.policy = self.policy
            gpm.on_finished = self._gpm_finished
            gpm.faults = self.faults
            self.gpms.append(gpm)
            self._gpm_id_at[tile.coordinate] = gpm_id
            # Dead GPMs are still constructed (stable gpm ids) but never
            # attached: a message routed at one raises DeadDestinationError
            # instead of silently disappearing into a handler.
            if self.faults is None or self.faults.gpm_alive(gpm_id):
                self.network.attach(tile.coordinate, gpm.mesh_handlers())
        self.network.attach(
            self.topology.cpu_coordinate,
            {MessageKind.TRANSLATION_REQ: self.iommu.receive_request},
        )
        self.iommu.policy = self.policy
        self.policy.bind(self)
        self.migration = None
        if config.migration.enabled:
            from repro.system.migration import MigrationEngine

            self.migration = MigrationEngine(self.sim, self, config.migration)
            self.iommu.migration = self.migration
        #: Timeline replayer; present only when the plan schedules
        #: mid-run events.  Imported lazily (repro.faults.recovery pulls
        #: in repro.system.migration).
        self.recovery = None
        if self.faults is not None and self.faults.dynamic:
            from repro.faults.recovery import RecoveryManager

            self.recovery = RecoveryManager(
                self.sim, self, config.faults.timeline
            )
        self._finished: set = set()
        self._metrics_collected = False
        #: IOMMU buffer pressure as ``[cycle, value]`` every
        #: ``sample_buffer_every`` cycles (Figure 4); None when unset.
        self.buffer_series: Optional[List[List[float]]] = None
        if sample_buffer_every or self.obs.registry.enabled:
            self._attach_sampler(sample_buffer_every)

    def _attach_sampler(self, buffer_every: Optional[int]) -> None:
        """Attach the run's one periodic sampler.

        Every ``buffer_every`` cycles (:data:`DEFAULT_SAMPLE_PERIOD` when
        unset) one tick fills :attr:`buffer_series` and, under metrics,
        records per-GPM outstanding-miss depth and the buffer pressure
        into registry gauges (and, when tracing, as Chrome counter
        events).  The tick reschedules only while other events are
        pending, so it stops once the workload drains; a second
        self-rescheduling sampler would see this one pending, and the two
        would keep the run alive forever.
        """
        sim = self.sim
        registry = self.obs.registry
        tracer = self.obs.tracer if self.obs.tracer.enabled else None
        period = buffer_every or DEFAULT_SAMPLE_PERIOD
        pressure = self.iommu.buffer_pressure
        series = None
        if buffer_every:
            series = self.buffer_series = []
        probes = []
        if registry.enabled:
            probes = [
                (
                    f"{gpm.name}.pending_depth",
                    (lambda g=gpm: len(g._pending)),
                    registry.gauge(f"{gpm.name}.pending_depth"),
                )
                for gpm in self.gpms
            ]
            probes.append((
                "iommu.buffer_pressure",
                pressure,
                registry.gauge("iommu.buffer_pressure"),
            ))

        def _tick() -> None:
            now = sim.now
            if series is not None:
                series.append([now, pressure()])
            for name, probe, gauge in probes:
                value = probe()
                gauge.sample(now, value)
                if tracer is not None:
                    tracer.counter(now, name, track="depth", value=value)
            if sim.pending_events:
                sim.schedule(period, _tick)

        sim.schedule(period, _tick)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def num_gpms(self) -> int:
        return len(self.gpms)

    def gpm_id_at(self, coordinate: Coordinate) -> int:
        try:
            return self._gpm_id_at[coordinate]
        except KeyError:
            raise ConfigurationError(f"no GPM at {coordinate}") from None

    # ------------------------------------------------------------------
    # Memory setup
    # ------------------------------------------------------------------
    def install_entries(self, entries: List[PageTableEntry]) -> None:
        """Register PTEs with the global page table and their home GPMs.

        Pages owned by a fault-disabled GPM are remapped to a surviving
        one (deterministically, by id) before installation — the modelled
        runtime reassigns a dead module's memory at boot.  Each GPM then
        installs its pages in one call, in their original order.
        """
        faults = self.faults
        dead = faults.dead_gpm_ids if faults is not None else ()
        remapped = 0
        by_owner: Dict[int, List[PageTableEntry]] = {}
        for entry in entries:
            owner = entry.owner_gpm
            if owner in dead:
                owner = entry.owner_gpm = faults.remap_owner(owner)
                remapped += 1
            group = by_owner.get(owner)
            if group is None:
                by_owner[owner] = [entry]
            else:
                group.append(entry)
        if remapped:
            faults.bump("remapped_pages", remapped)
        self.iommu.page_table.insert_many(entries)
        for owner, group in by_owner.items():
            self.gpms[owner].hierarchy.install_local_pages(group)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def load_traces(
        self,
        per_gpm_traces: List[List[int]],
        burst: int = None,
        interval: int = None,
    ) -> None:
        if len(per_gpm_traces) != self.num_gpms:
            raise ConfigurationError(
                f"expected {self.num_gpms} trace slices, "
                f"got {len(per_gpm_traces)}"
            )
        for gpm, trace in zip(self.gpms, per_gpm_traces):
            if self.faults is not None and not self.faults.gpm_alive(gpm.gpm_id):
                # A dead module executes nothing; its share of the workload
                # is simply lost (the degradation the ext_faults experiment
                # measures), and its empty trace drains immediately so the
                # wafer still reaches all_finished.
                trace = []
            gpm.load_trace(trace, burst=burst, interval=interval)

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Start every GPM and run to completion; returns the final cycle."""
        self.sim.max_cycles = max_cycles
        for gpm in self.gpms:
            gpm.start()
        return self.sim.run()

    def release(self) -> None:
        """Unwire a finished wafer so that refcounting alone frees it.

        The wiring makes the wafer one large reference cycle: the mesh
        handlers and trace-driver callbacks are bound methods of the
        modules, and the policy points back at the wafer.  Only a cyclic
        GC pass frees such a graph, and that pass walks every object of
        the run.  Call once nothing will use the wafer again.
        """
        self.network._handlers.clear()
        self.policy.wafer = None
        self.iommu.policy = None
        for gpm in self.gpms:
            gpm.policy = gpm.on_finished = None
            gpm.driver.issue_fn = gpm.driver.on_drain = None

    def _gpm_finished(self, gpm: GPM) -> None:
        self._finished.add(gpm.gpm_id)

    def note_gpm_killed(self, gpm: GPM) -> None:
        """A timeline kill: the module's remaining work is lost, so it
        counts as finished (PR 4's boot-dead semantics, applied mid-run)
        until a recovery resurrects it."""
        if gpm.finish_time is None:
            gpm.finish_time = self.sim.now
        self._finished.add(gpm.gpm_id)

    def note_gpm_recovered(self, gpm: GPM) -> None:
        """Undo the kill's finish bookkeeping when trace remains to run."""
        if not gpm.driver.drained:
            gpm.finish_time = None
            self._finished.discard(gpm.gpm_id)

    @property
    def all_finished(self) -> bool:
        return len(self._finished) >= self.num_gpms

    def execution_cycles(self) -> int:
        """Wall-clock of the slowest GPM (the workload's makespan)."""
        times = [g.finish_time for g in self.gpms if g.finish_time is not None]
        return max(times) if times else self.sim.now

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def collect_metrics(self) -> Dict[str, object]:
        """Fold every component's counters into the registry; snapshot it.

        Pull-based: plain ``Component.stats`` dicts cost nothing during the
        run and are merged once here, so the registry sees the same
        counters the result assembly reads, plus anything components
        pushed live (histograms, sampled gauges).  Idempotent.
        """
        registry = self.obs.registry
        if registry.enabled and not self._metrics_collected:
            self._metrics_collected = True
            for gpm in self.gpms:
                registry.merge_stats(gpm.name, gpm.stats)
                hierarchy = gpm.hierarchy
                registry.merge_stats(f"{gpm.name}.filter", {
                    "false_positives": hierarchy.false_positives,
                    "negatives": hierarchy.filter_negatives,
                    "remote_cached_vpns": hierarchy.remote_cached_vpns,
                })
                for level, tlb in hierarchy.tlb_levels().items():
                    registry.merge_stats(f"{gpm.name}.tlb.{level}", tlb.stats)
            registry.merge_stats("iommu", self.iommu.stats)
            registry.merge_stats("iommu.walkers", self.iommu.walkers.stats)
            registry.merge_stats("noc", {
                "messages_sent": self.network.messages_sent,
                "messages_routed": self.network.messages_routed,
                "total_hops": self.network.total_hops,
                "link_wait_cycles": self.network.link_wait_cycles(),
                "total_link_bytes": self.network.total_link_bytes(),
            })
            registry.merge_stats("sim", {
                "events_processed": self.sim.events_processed,
                "dropped_events": self.sim.dropped_events,
                "final_cycle": self.sim.now,
            })
            if self.faults is not None:
                registry.merge_stats("faults", dict(self.faults.counters))
        return registry.snapshot()
