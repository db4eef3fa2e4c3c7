"""Figure 15 — Ablation of HDPAT's techniques.

Evaluates each design point from §IV: route-based caching, concentric
caching, the distributed-caching baseline, clustering+rotation, the
redirection table, prefetching, and the full combination.  The paper's
ordering: route/concentric gain little (repeat attempts, duplication),
distributed 1.08x, cluster+rotation 1.13x, redirection 1.18x, prefetch
1.17x, and all combined 1.57x.
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

ABLATIONS = (
    "route",
    "concentric",
    "distributed",
    "cluster_rotation",
    "redirection",
    "prefetch",
    "hdpat",
)


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
        (ablation, base_config.with_hdpat(HDPATConfig.ablation(ablation)))
        for ablation in ABLATIONS
    )
    jobs = job_grid(configs, names, scale, seed)
    cache.warm(jobs.values())
    rows = []
    speedups = {ablation: [] for ablation in ABLATIONS}
    for name in names:
        baseline = cache.get(jobs["baseline", name])
        row = [name.upper()]
        for ablation in ABLATIONS:
            speedup = cache.get(jobs[ablation, name]).speedup_over(baseline)
            speedups[ablation].append(speedup)
            row.append(speedup)
        rows.append(row)
    rows.append(
        ["GEOMEAN"] + [geomean(speedups[a]) for a in ABLATIONS]
    )
    return ExperimentResult(
        experiment_id="fig15",
        title="Ablation of HDPAT techniques (Figure 15)",
        headers=["Benchmark", "Route", "Concentric", "Distributed",
                 "Cluster+Rot", "+Redirection", "+Prefetch", "HDPAT (all)"],
        rows=rows,
        notes=(
            "Paper: route/concentric ~1.0x, distributed 1.08x, cluster+rot "
            "1.13x, redirection 1.18x, prefetch 1.17x, all combined 1.57x."
        ),
    )
