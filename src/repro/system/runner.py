"""End-to-end benchmark runner.

``run_benchmark`` is the single entry point every experiment uses: build a
wafer from a config, synthesise the workload, install its pages, drive the
traces to completion, and package a :class:`RunResult`.
"""

from __future__ import annotations

import warnings
from typing import Optional, Union

from repro.config.system import SystemConfig
from repro.core.policy import TranslationPolicy
from repro.core.request import ServedBy
from repro.errors import AccountingWarning, TruncationWarning
from repro.mem.allocator import PageAllocator
from repro.obs import Observability
from repro.stats.timeseries import PeriodicSampler, TimeSeries
from repro.system.result import RunResult
from repro.system.wafer import WaferScaleGPU
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload


def run_benchmark(
    config: SystemConfig,
    workload: Union[str, Workload],
    scale: float = 1.0,
    seed: Optional[int] = None,
    policy: Optional[TranslationPolicy] = None,
    sample_buffer_every: Optional[int] = None,
    max_cycles: Optional[int] = None,
    obs: Optional[Observability] = None,
    sanitize: Union[bool, str] = False,
) -> RunResult:
    """Run one benchmark on one configuration and return its results.

    ``scale`` shrinks the workload (accesses and footprint together);
    ``sample_buffer_every`` attaches a periodic IOMMU buffer-pressure
    sampler (Figure 4); ``policy`` overrides the config-derived policy
    (used for the SOTA baselines); ``obs`` attaches a fresh
    :class:`~repro.obs.Observability` whose metrics snapshot lands in
    ``RunResult.extras["metrics"]``; ``sanitize`` arms the runtime
    sanitizers (event order, NoC conservation, buffer leaks — see
    docs/ANALYSIS.md), whose clean-run report lands in
    ``RunResult.extras["sanitizers"]``.  ``sanitize="races"`` (or
    ``"races:report"``) additionally arms the same-cycle race detector.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    wafer = WaferScaleGPU(config, policy=policy, obs=obs, sanitize=sanitize)
    allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
    trace = workload.generate(
        num_gpms=wafer.num_gpms,
        allocator=allocator,
        scale=scale,
        seed=seed if seed is not None else config.seed,
    )
    for allocation in allocator.allocations:
        wafer.install_entries(allocator.materialize(allocation))
    wafer.load_traces(trace.per_gpm, burst=trace.burst, interval=trace.interval)

    buffer_series = None
    if sample_buffer_every:
        buffer_series = TimeSeries(f"{workload.name}.buffer_pressure")
        PeriodicSampler(
            wafer.sim,
            probe=wafer.iommu.buffer_pressure,
            period=sample_buffer_every,
            series=buffer_series,
        )

    wafer.run(max_cycles=max_cycles)
    result = collect_result(wafer, trace)
    if buffer_series is not None:
        result.extras["buffer_series"] = [
            [cycle, value] for cycle, value in buffer_series.points()
        ]
    if wafer.sim.sanitizer is not None:
        result.extras["sanitizers"] = wafer.sim.sanitizer.report()
    if wafer.faults is not None:
        result.extras["faults"] = wafer.faults.report()
    return result


#: Extras keys that describe the host-side observation of a run rather
#: than the run itself; the disk cache never stores them.
OBS_EXTRAS = (
    "metrics", "noc_links", "host_profile", "phase_profile",
    "phase_report", "trace_events", "events_processed",
)


def _prefetch_accuracy_raw(proactive_hits: int, prefetch_pushed: int) -> float:
    """Unclamped proactive-hits / pushed-PTEs ratio.

    Figures keep using the clamped :meth:`RunResult.prefetch_accuracy`; a
    raw value above 1.0 means accounting went wrong (more demand hits
    attributed to prefetched PTEs than PTEs were ever pushed) and must
    surface rather than be masked by the clamp.
    """
    if not prefetch_pushed:
        return 0.0
    return proactive_hits / prefetch_pushed


def collect_result(wafer: WaferScaleGPU, trace) -> RunResult:
    """Assemble a :class:`RunResult` from a completed wafer run.

    Every value is plain JSON (int-keyed maps are written as pair lists),
    so a result revived from the disk cache equals the live one.  The
    :data:`OBS_EXTRAS` keys appear only when observability is enabled.
    """
    served_totals = {}
    remote_total = 0
    rtt_sum = 0
    rtt_count = 0
    for gpm in wafer.gpms:
        for served, count in gpm.served_by_counts.items():
            served_totals[served] = served_totals.get(served, 0) + count
        remote_total += gpm.stat("remote_translations")
        rtt_sum += gpm.rtt_sum
        rtt_count += gpm.rtt_count
    iommu = wafer.iommu
    obs = wafer.obs
    sim = wafer.sim
    if sim.truncated:
        obs.registry.counter("warnings.truncated_events").inc(
            sim.dropped_events
        )
        # The dropped events would have closed these spans; flush them so
        # the exported trace stays loadable (matched B/E and b/e pairs).
        flushed = obs.tracer.flush_open(sim.now)
        if flushed:
            obs.registry.counter("warnings.flushed_spans").inc(flushed)
        warnings.warn(
            f"{trace.name}: run truncated at max_cycles={sim.max_cycles}; "
            f"{sim.dropped_events} pending events dropped — aggregates "
            f"undercount the full execution",
            TruncationWarning,
            stacklevel=2,
        )
    prefetch_raw = _prefetch_accuracy_raw(
        served_totals.get(ServedBy.PROACTIVE, 0), iommu.prefetch_pushed
    )
    if prefetch_raw > 1.0:
        obs.registry.counter("warnings.prefetch_accuracy_overflow").inc()
        warnings.warn(
            f"{trace.name}: raw prefetch accuracy {prefetch_raw:.3f} > 1.0 "
            f"(proactive hits exceed pushed PTEs) — accounting bug",
            AccountingWarning,
            stacklevel=2,
        )
    obs_extras = {}
    if obs.enabled:
        obs_extras["metrics"] = wafer.collect_metrics()
        obs_extras["noc_links"] = wafer.network.link_report()
        if obs.profiler is not None:
            obs_extras["host_profile"] = obs.profiler.report()
            obs_extras["phase_profile"] = obs.profiler.layer_seconds()
            obs_extras["phase_report"] = obs.profiler.layer_report()
        if obs.tracer.enabled:
            obs_extras["trace_events"] = len(obs.tracer.events)
        # Host-throughput denominator for events-per-second figures.
        obs_extras["events_processed"] = sim.events_processed
    return RunResult(
        workload=trace.name,
        config_description=wafer.config.describe(),
        exec_cycles=wafer.execution_cycles(),
        # ``is not None``, not ``or``: a GPM with an empty trace slice
        # legitimately finishes at cycle 0, which is falsy.
        per_gpm_finish=[
            g.finish_time if g.finish_time is not None else wafer.sim.now
            for g in wafer.gpms
        ],
        served_by=served_totals,
        total_accesses=trace.total_accesses,
        iommu_requests=iommu.stat("requests"),
        iommu_walks=iommu.stat("walks"),
        iommu_coalesced=iommu.stat("coalesced"),
        iommu_redirects=iommu.stat("redirects"),
        latency_breakdown=iommu.breakdown.means(),
        latency_percent=iommu.breakdown.percentages(),
        prefetch_pushed=iommu.prefetch_pushed,
        total_link_bytes=wafer.network.total_link_bytes(),
        translation_link_bytes=wafer.network.translation_link_bytes(),
        mean_hops=wafer.network.mean_hops(),
        mean_rtt=(rtt_sum / rtt_count) if rtt_count else 0.0,
        remote_translations=remote_total,
        extras={
            "all_finished": wafer.all_finished,
            # Accesses that actually completed; under a fault timeline a
            # fail-stopped GPM's remaining work is lost, so this can fall
            # short of total_accesses (the cost-per-access denominator
            # ext_recovery normalises by).
            "completed_accesses": sum(
                g.stat("accesses_completed") for g in wafer.gpms
            ),
            "truncated": sim.truncated,
            "dropped_events": sim.dropped_events,
            "prefetch_accuracy_raw": prefetch_raw,
            "traffic_by_kind": wafer.network.traffic_report(),
            **obs_extras,
            "migration": (
                {
                    "migrations": wafer.migration.migration_stats.migrations,
                    "bytes_moved": wafer.migration.migration_stats.bytes_moved,
                    "rejected_cooldown": (
                        wafer.migration.migration_stats.rejected_cooldown
                    ),
                }
                if wafer.migration is not None
                else {}
            ),
            # Summaries of the IOMMU's request-stream recorders
            # (Figs. 6, 7, 8 and 13).
            "iommu_analyzers": {
                "translation_counts": iommu.translation_counts.summary(),
                "reuse_distance": iommu.reuse_distance.summary(),
                "spatial_locality": iommu.spatial_locality.summary(),
                "served_window": list(iommu.served_window.windows),
            },
        },
    )
