"""Figure 8 — Virtual-address distance between consecutive translations.

For each benchmark, the fraction of next-translation requests landing
within 1/2/4/8/16 pages of the current one.  The paper measures 10-30 % of
future requests in close proximity — the signal behind proactive delivery.
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
from repro.stats.locality import fraction_within


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
        locality = result.extras["iommu_analyzers"]["spatial_locality"]
        rows.append(
            [name.upper()]
            + [fraction_within(locality, pages) for pages in (1, 2, 4, 16)]
        )
    return ExperimentResult(
        experiment_id="fig08",
        title="Spatial locality of consecutive translation requests (Figure 8)",
        headers=["Benchmark", "within 1", "within 2", "within 4", "within 16"],
        rows=rows,
        notes=(
            "Paper: 10-30 % of next requests fall within a few pages, "
            "especially in compute-intensive benchmarks (AES, FWS, MM)."
        ),
    )
