"""Figure 7 — Distribution of access counts between repeated translations.

Reuse distances at the IOMMU for benchmarks with repeat translations.  The
paper: distances range from very small (coalescible within one walk) to
hundreds of thousands (beyond LRU TLBs — motivating DRAM-backed caching).
"""

from __future__ import annotations

from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    make_job,
)
from repro.stats.reuse import repeated_requests, reuse_fractions

DEFAULT_WORKLOADS = ("bt", "fwt", "mt", "pr")


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    names = tuple(benchmarks) if benchmarks else DEFAULT_WORKLOADS
    config = wafer_7x7_config()
    jobs = {name: make_job(config, name, scale, seed) for name in names}
    cache.warm(jobs.values())
    rows = []
    for name in names:
        result = cache.get(jobs[name])
        reuse = result.extras["iommu_analyzers"]["reuse_distance"]
        rows.append(
            [name.upper(), repeated_requests(reuse)]
            + reuse_fractions(reuse)
            + [reuse["max"]]
        )
    labels = ["<10", "10-100", "100-1k", "1k-10k", "10k-100k", ">=100k"]
    return ExperimentResult(
        experiment_id="fig07",
        title="Reuse distance between repeated translations (Figure 7)",
        headers=["Benchmark", "Repeats"] + labels + ["Max distance"],
        rows=rows,
        notes=(
            "Paper: distances span small values to hundreds of thousands; "
            "small ones suit walk coalescing, large ones defeat LRU TLBs."
        ),
    )
