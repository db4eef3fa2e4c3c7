"""Figure 6 — Distribution of per-page translation counts at the IOMMU.

For each benchmark, how many times each virtual page is translated by the
IOMMU.  The paper: AES and RELU translate each page once (TLBs filter
repeats), while BT/FWT re-translate the same pages — motivating caching.
"""

from __future__ import annotations

from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    make_job,
    resolve_benchmarks,
)
from repro.stats.reuse import (
    fraction_single_translation,
    mean_translations_per_page,
    unique_pages,
)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    names = resolve_benchmarks(benchmarks)
    config = wafer_7x7_config()
    jobs = {name: make_job(config, name, scale, seed) for name in names}
    cache.warm(jobs.values())
    rows = []
    for name in names:
        result = cache.get(jobs[name])
        counts = result.extras["iommu_analyzers"]["translation_counts"]
        pages = unique_pages(counts)
        once = fraction_single_translation(counts)
        few = sum(n / pages for count, n in counts["histogram"] if 2 <= count <= 4)
        many = max(0.0, 1.0 - once - few)
        rows.append(
            [
                name.upper(),
                pages,
                once,
                few,
                many,
                mean_translations_per_page(counts),
            ]
        )
    return ExperimentResult(
        experiment_id="fig06",
        title="Per-page IOMMU translation count distribution (Figure 6)",
        headers=[
            "Benchmark", "Pages", "=1x", "2-4x", ">4x", "Mean translations",
        ],
        rows=rows,
        notes=(
            "Paper: AES/RELU are single-translation; BT/FWT repeat — "
            "most benchmarks translate addresses multiple times."
        ),
    )
