"""Figure 14 — Overall performance: HDPAT vs SOTA vs baseline.

Normalized performance of Trans-FW, Valkyrie, Barre, and HDPAT over the
naive centralized baseline across all 14 benchmarks.  The paper reports a
1.57x average for HDPAT, ahead of every state-of-the-art comparison point.
"""

from __future__ import annotations

from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.core.baselines.registry import SOTA_NAMES, sota_system_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    job_grid,
    make_job,
    resolve_benchmarks,
)
from repro.units import geomean

SCHEMES = ("baseline",) + SOTA_NAMES + ("hdpat",)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    names = resolve_benchmarks(benchmarks)
    base_config = wafer_7x7_config()
    hdpat_config = base_config.with_hdpat(HDPATConfig.full())
    jobs = job_grid(
        {"baseline": base_config, "hdpat": hdpat_config}, names, scale, seed
    )
    jobs.update(
        ((scheme, name), make_job(sota_system_config(scheme, base_config),
                                  name, scale, seed, policy_key=scheme))
        for scheme in SOTA_NAMES for name in names
    )
    cache.warm(jobs.values())
    rows = []
    speedups = {scheme: [] for scheme in SCHEMES if scheme != "baseline"}
    for name in names:
        baseline = cache.get(jobs["baseline", name])
        row = [name.upper(), 1.0]
        for scheme in SOTA_NAMES:
            speedup = cache.get(jobs[scheme, name]).speedup_over(baseline)
            speedups[scheme].append(speedup)
            row.append(speedup)
        hdpat = cache.get(jobs["hdpat", name])
        speedup = hdpat.speedup_over(baseline)
        speedups["hdpat"].append(speedup)
        row.append(speedup)
        rows.append(row)
    rows.append(
        ["GEOMEAN", 1.0]
        + [geomean(speedups[scheme]) for scheme in SCHEMES if scheme != "baseline"]
    )
    return ExperimentResult(
        experiment_id="fig14",
        title="Overall performance vs baseline and SOTA (Figure 14)",
        headers=["Benchmark"] + [s.capitalize() for s in SCHEMES],
        rows=rows,
        notes=(
            "Paper: HDPAT averages 1.57x over baseline and ~1.35x over the "
            "best SOTA; Trans-FW/Valkyrie leave remote requests at the "
            "IOMMU, Barre is bounded by the PW-queue size."
        ),
    )
