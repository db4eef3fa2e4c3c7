"""Figure 2 — IOMMU performance-headroom analysis.

Compares the baseline MMU configuration (500-cycle walks, 16 walkers)
against two idealised IOMMUs: 1-cycle walks with 16 walkers, and 500-cycle
walks with 4096 walkers.  The paper measures 5.45x and 4.96x average
speedups — both idealisations mostly eliminate the dominating queueing.
"""

from __future__ import annotations

from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    job_grid,
    resolve_benchmarks,
)
from repro.units import geomean


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    names = resolve_benchmarks(benchmarks)
    base_config = wafer_7x7_config()
    ideal_latency = base_config.with_iommu(
        base_config.iommu.idealized(walk_latency=1)
    )
    ideal_parallel = base_config.with_iommu(
        base_config.iommu.idealized(num_walkers=4096)
    )
    configs = {
        "baseline": base_config, "fast": ideal_latency, "wide": ideal_parallel,
    }
    jobs = job_grid(configs, names, scale, seed)
    cache.warm(jobs.values())
    rows = []
    latency_speedups, parallel_speedups = [], []
    for name in names:
        baseline = cache.get(jobs["baseline", name])
        fast = cache.get(jobs["fast", name])
        wide = cache.get(jobs["wide", name])
        speedup_fast = fast.speedup_over(baseline)
        speedup_wide = wide.speedup_over(baseline)
        latency_speedups.append(speedup_fast)
        parallel_speedups.append(speedup_wide)
        rows.append([name.upper(), 1.0, speedup_fast, speedup_wide])
    rows.append(
        [
            "GEOMEAN",
            1.0,
            geomean(latency_speedups),
            geomean(parallel_speedups),
        ]
    )
    return ExperimentResult(
        experiment_id="fig02",
        title="IOMMU headroom: baseline vs idealized IOMMUs (Figure 2)",
        headers=[
            "Benchmark",
            "Baseline",
            "1-cycle/16-walker",
            "500-cycle/4096-walker",
        ],
        rows=rows,
        notes="Paper: 5.45x and 4.96x average speedups — queueing dominates.",
    )
