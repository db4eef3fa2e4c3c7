"""Extension ablation — selective-push threshold (§IV-F).

The IOMMU pushes a demand PTE to the auxiliary holders only once its
access count (kept in spare PTE bits) reaches a threshold, so scarce peer
LLT space is spent on provably reused pages.  This sweep quantifies the
trade: threshold 1 pushes everything (more peer hits, more thrash and
traffic); large thresholds barely push at all.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    REPRESENTATIVE_BENCHMARKS,
    RunCache,
    job_grid,
    resolve_benchmarks,
)
from repro.units import geomean

THRESHOLDS = (1, 2, 4, 8)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    names = resolve_benchmarks(
        benchmarks if benchmarks is not None else REPRESENTATIVE_BENCHMARKS
    )
    base_config = wafer_7x7_config()
    configs = {"baseline": base_config}
    configs.update(
        (threshold, base_config.with_hdpat(
            replace(HDPATConfig.full(), push_threshold=threshold)))
        for threshold in THRESHOLDS
    )
    jobs = job_grid(configs, names, scale, seed)
    cache.warm(jobs.values())
    rows = []
    for threshold in THRESHOLDS:
        speedups = [
            cache.get(jobs[threshold, name]).speedup_over(
                cache.get(jobs["baseline", name])
            )
            for name in names
        ]
        rows.append([f"threshold={threshold}", geomean(speedups)])
    return ExperimentResult(
        experiment_id="ext_threshold",
        title="Design ablation: selective-push access-count threshold (§IV-F)",
        headers=["Push threshold", "Geomean speedup"],
        rows=rows,
        notes="HDPAT defaults to 2: push only pages already walked twice.",
    )
