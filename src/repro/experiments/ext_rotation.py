"""Extension ablation — does the 180-degree rotation matter? (§IV-E)

Runs cluster-based caching with and without rotating alternate layers'
numbering origins.  Without rotation, both layers' holders for a VPN sit
in the same quadrant arc: requesters from the opposite quadrant pay extra
hops on every probe.  Rotation is the paper's fix; this experiment
quantifies it.
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
    with_rotation = base_config.with_hdpat(HDPATConfig.full())
    without_rotation = base_config.with_hdpat(
        replace(HDPATConfig.full(), use_rotation=False)
    )
    configs = {
        "baseline": base_config,
        "rotated": with_rotation,
        "unrotated": without_rotation,
    }
    jobs = job_grid(configs, names, scale, seed)
    cache.warm(jobs.values())
    rows = []
    ratios = []
    for name in names:
        baseline = cache.get(jobs["baseline", name])
        rotated = cache.get(jobs["rotated", name])
        unrotated = cache.get(jobs["unrotated", name])
        rotated_speedup = rotated.speedup_over(baseline)
        unrotated_speedup = unrotated.speedup_over(baseline)
        ratios.append(rotated_speedup / unrotated_speedup)
        rows.append(
            [name.upper(), unrotated_speedup, rotated_speedup,
             rotated.mean_rtt / max(unrotated.mean_rtt, 1)]
        )
    rows.append(["GEOMEAN", "-", "-", "-"])
    return ExperimentResult(
        experiment_id="ext_rotation",
        title="Design ablation: layer rotation on vs off (§IV-E)",
        headers=["Benchmark", "No rotation", "With rotation", "RTT ratio"],
        rows=rows,
        notes=(
            f"Rotation speedup ratio (geomean): {geomean(ratios):.3f}. "
            "Rotation guarantees a nearby holder for every quadrant."
        ),
    )
