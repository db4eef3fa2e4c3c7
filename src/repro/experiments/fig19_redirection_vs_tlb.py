"""Figure 19 — Redirection table vs a conventional TLB at the IOMMU.

Replaces the 1024-entry redirection table with a 512-entry TLB occupying
the same area (the redirection table stores no PFN, so it packs twice the
entries).  The paper measures the redirection table 1.27x ahead: the TLB's
MSHRs throttle concurrency, and proactive pushes thrash its contents.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.gpm import TLBConfig
from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.core.overhead import equivalent_tlb_entries
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
    redirection_config = base_config.with_hdpat(HDPATConfig.full())
    tlb_entries = max(256, equivalent_tlb_entries(1024) // 64 * 64)
    tlb_config = redirection_config.with_iommu(
        replace(
            redirection_config.iommu,
            iommu_tlb=TLBConfig(
                num_sets=tlb_entries // 8, num_ways=8, num_mshrs=32, latency=2
            ),
        )
    )
    configs = {
        "baseline": base_config,
        "redirection": redirection_config,
        "tlb": tlb_config,
    }
    jobs = job_grid(configs, names, scale, seed)
    cache.warm(jobs.values())
    rows = []
    ratios = []
    for name in names:
        baseline = cache.get(jobs["baseline", name])
        with_redirection = cache.get(jobs["redirection", name])
        with_tlb = cache.get(jobs["tlb", name])
        redirection_speedup = with_redirection.speedup_over(baseline)
        tlb_speedup = with_tlb.speedup_over(baseline)
        ratios.append(redirection_speedup / tlb_speedup)
        rows.append(
            [name.upper(), tlb_speedup, redirection_speedup,
             redirection_speedup / tlb_speedup]
        )
    rows.append(["GEOMEAN", "-", "-", geomean(ratios)])
    return ExperimentResult(
        experiment_id="fig19",
        title="Redirection table vs IOMMU-side TLB (Figure 19)",
        headers=["Benchmark", "TLB speedup", "Redirection speedup",
                 "Redirection/TLB"],
        rows=rows,
        notes=(
            f"TLB sized to equal area: {tlb_entries} entries vs 1024 "
            "redirection entries. Paper: redirection 1.27x ahead."
        ),
    )
