"""Figure 18 — Proactive delivery granularity (1 / 4 / 8 PTEs per walk).

Performance normalized to no-HDPAT while sweeping the number of contiguous
PTEs delivered per page table walk.  The paper measures 1.40x / 1.57x /
1.59x for 1/4/8 and adopts 4 as the knee of the curve.
"""

from __future__ import annotations

from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    job_grid,
    resolve_benchmarks,
)
from repro.units import geomean

GRANULARITIES = (1, 4, 8)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    names = resolve_benchmarks(benchmarks)
    base_config = wafer_7x7_config()
    configs = {"baseline": base_config}
    configs.update(
        (granularity,
         base_config.with_hdpat(HDPATConfig.full(prefetch_degree=granularity)))
        for granularity in GRANULARITIES
    )
    jobs = job_grid(configs, names, scale, seed)
    cache.warm(jobs.values())
    rows = []
    speedups = {g: [] for g in GRANULARITIES}
    for name in names:
        baseline = cache.get(jobs["baseline", name])
        row = [name.upper()]
        for granularity in GRANULARITIES:
            speedup = cache.get(jobs[granularity, name]).speedup_over(baseline)
            speedups[granularity].append(speedup)
            row.append(speedup)
        rows.append(row)
    rows.append(["GEOMEAN"] + [geomean(speedups[g]) for g in GRANULARITIES])
    return ExperimentResult(
        experiment_id="fig18",
        title="Proactive delivery granularity sweep (Figure 18)",
        headers=["Benchmark", "1 PTE", "4 PTEs", "8 PTEs"],
        rows=rows,
        notes=(
            "Paper: 1.40x / 1.57x / 1.59x — saturates at 4 PTEs; BT and MT "
            "gain <10% due to irregular access."
        ),
    )
