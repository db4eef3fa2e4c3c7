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
    speedup_table,
)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    names = resolve_benchmarks(benchmarks)
    base_config = wafer_7x7_config()
    configs = {
        "baseline": base_config,
        "fast": base_config.with_iommu(
            base_config.iommu.idealized(walk_latency=1)
        ),
        "wide": base_config.with_iommu(
            base_config.iommu.idealized(num_walkers=4096)
        ),
    }
    return speedup_table(
        "fig02",
        "IOMMU headroom: baseline vs idealized IOMMUs (Figure 2)",
        ["Benchmark", "Baseline", "1-cycle/16-walker", "500-cycle/4096-walker"],
        job_grid(configs, names, scale, seed),
        list(configs),
        names,
        cache,
        notes="Paper: 5.45x and 4.96x average speedups — queueing dominates.",
    )
