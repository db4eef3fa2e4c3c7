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
    speedup_table,
)

THRESHOLDS = (1, 2, 4, 8)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
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
    title = "Design ablation: selective-push access-count threshold (§IV-F)"
    labels = [f"threshold={threshold}" for threshold in THRESHOLDS]
    per_benchmark = speedup_table(
        "ext_threshold", title, ["Benchmark"] + labels,
        job_grid(configs, names, scale, seed), THRESHOLDS, names, cache,
    )
    geomeans = per_benchmark.row_for("GEOMEAN")[1:]
    return ExperimentResult(
        experiment_id="ext_threshold",
        title=title,
        headers=["Push threshold", "Geomean speedup"],
        rows=[[label, value] for label, value in zip(labels, geomeans)],
        notes="HDPAT defaults to 2: push only pages already walked twice.",
    )
