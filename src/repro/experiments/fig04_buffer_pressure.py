"""Figure 4 — IOMMU buffer pressure: MCM-GPU (4 GPM) vs wafer-scale (48 GPM).

Samples the number of requests waiting for an IOMMU walker over time while
running SPMV on both systems.  The paper observes an all-time-high standing
backlog (~700 requests) on the wafer and near-zero pressure on the MCM,
demonstrating that the IOMMU only becomes the bottleneck at wafer scale.
"""

from __future__ import annotations

from repro.config.presets import mcm_4gpm_config, wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    make_job,
)

SAMPLE_PERIOD = 2_000


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    workload = (benchmarks[0] if isinstance(benchmarks, (list, tuple)) and benchmarks
                else "spmv")
    jobs = {
        system: make_job(config, workload, scale, seed,
                         sample_buffer_every=SAMPLE_PERIOD)
        for system, config in (("mcm", mcm_4gpm_config()),
                               ("wafer", wafer_7x7_config()))
    }
    cache.warm(jobs.values())
    results = {system: cache.get(job) for system, job in jobs.items()}
    series = {
        system: result.extras["buffer_series"]
        for system, result in results.items()
    }
    rows = []
    for label, system in (("MCM-GPU (4 GPM)", "mcm"),
                          ("Wafer-scale (48 GPM)", "wafer")):
        values = [value for _cycle, value in series[system]]
        rows.append([
            label,
            max(values) if values else 0.0,
            sum(values) / len(values) if values else 0.0,
            results[system].exec_cycles,
        ])
    return ExperimentResult(
        experiment_id="fig04",
        title=f"IOMMU buffer pressure over time, {workload.upper()} (Figure 4)",
        headers=["System", "Peak occupancy", "Mean occupancy", "Exec cycles"],
        rows=rows,
        notes=(
            "Paper: persistent ~700-request backlog on the 48-GPM wafer, "
            "negligible on the 4-GPM MCM."
        ),
        series=series,
    )
