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
    speedup_table,
)
from repro.units import geomean


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
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
    table = speedup_table(
        "fig19",
        "Redirection table vs IOMMU-side TLB (Figure 19)",
        ["Benchmark", "TLB speedup", "Redirection speedup", "Redirection/TLB"],
        job_grid(configs, names, scale, seed),
        ["tlb", "redirection"],
        names,
        cache,
        notes=(
            f"TLB sized to equal area: {tlb_entries} entries vs 1024 "
            "redirection entries. Paper: redirection 1.27x ahead."
        ),
    )
    # Only the ratio column is summarised.
    ratios = [redirection / tlb for _, tlb, redirection in table.rows[:-1]]
    for row, ratio in zip(table.rows, ratios):
        row.append(ratio)
    table.rows[-1] = ["GEOMEAN", "-", "-", geomean(ratios)]
    return table
