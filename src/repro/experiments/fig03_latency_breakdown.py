"""Figure 3 — Averaged latency breakdown per IOMMU translation request.

Decomposes SPMV's IOMMU translation latency into pre-queue latency, PTW
queueing delay, and PTW latency.  The paper finds pre-queue delay is the
largest component, driven by a standing backlog of ~700 requests.
"""

from __future__ import annotations

from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    make_job,
)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    workload = (benchmarks[0] if isinstance(benchmarks, (list, tuple)) and benchmarks
                else "spmv")
    result = cache.get(make_job(wafer_7x7_config(), workload, scale, seed))
    rows = [
        [phase, result.latency_breakdown[phase], result.latency_percent[phase]]
        for phase in ("pre_queue", "ptw_queue", "ptw")
    ]
    dominant = max(rows, key=lambda r: r[2])[0]
    return ExperimentResult(
        experiment_id="fig03",
        title=f"IOMMU latency breakdown for {workload.upper()} (Figure 3)",
        headers=["Phase", "Mean cycles", "Percent"],
        rows=rows,
        notes=(
            f"Dominant phase: {dominant}. "
            "Paper: pre-queue delay is the largest component for SPMV."
        ),
    )
