"""Figure 22 — HDPAT on a larger 7x12 wafer.

Per-benchmark HDPAT speedup on the 83-GPM wafer.  The paper measures a
1.49x geometric mean — the distributed design keeps scaling as the wafer
grows.
"""

from __future__ import annotations

from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x12_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    REPRESENTATIVE_BENCHMARKS,
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
    names = resolve_benchmarks(
        benchmarks if benchmarks is not None else REPRESENTATIVE_BENCHMARKS
    )
    base_config = wafer_7x12_config()
    hdpat_config = base_config.with_hdpat(HDPATConfig.full())
    jobs = job_grid(
        {"baseline": base_config, "hdpat": hdpat_config}, names, scale, seed
    )
    cache.warm(jobs.values())
    rows = []
    speedups = []
    for name in names:
        baseline = cache.get(jobs["baseline", name])
        hdpat = cache.get(jobs["hdpat", name])
        speedup = hdpat.speedup_over(baseline)
        speedups.append(speedup)
        rows.append([name.upper(), speedup])
    rows.append(["GEOMEAN", geomean(speedups)])
    return ExperimentResult(
        experiment_id="fig22",
        title="HDPAT on the 7x12 wafer (83 GPMs) (Figure 22)",
        headers=["Benchmark", "HDPAT speedup"],
        rows=rows,
        notes="Paper: all workloads gain; geometric mean 1.49x.",
    )
