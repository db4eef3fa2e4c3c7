"""Figure 16 — How HDPAT distributes translation handling.

For each benchmark under full HDPAT, the share of remote translations
resolved by peer caching, redirection, proactive delivery, and the IOMMU.
The paper measures 42.1 % offloaded overall, with PR peer-heavy (65 %), BT
peer caching at 38 %, and MT almost entirely IOMMU-bound.
"""

from __future__ import annotations

from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    make_job,
    resolve_benchmarks,
)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    names = resolve_benchmarks(benchmarks)
    config = wafer_7x7_config(hdpat=HDPATConfig.full())
    jobs = {name: make_job(config, name, scale, seed) for name in names}
    cache.warm(jobs.values())
    rows = []
    offloads = []
    for name in names:
        result = cache.get(jobs[name])
        breakdown = result.remote_breakdown()
        offloads.append(result.offload_fraction())
        rows.append(
            [
                name.upper(),
                breakdown["peer"],
                breakdown["redirect"],
                breakdown["proactive"],
                breakdown["iommu"],
                result.prefetch_accuracy(),
            ]
        )
    mean_offload = sum(offloads) / len(offloads) if offloads else 0.0
    rows.append(
        ["MEAN", *(sum(r[i] for r in rows) / len(rows) for i in range(1, 6))]
    )
    return ExperimentResult(
        experiment_id="fig16",
        title="Translation-handling breakdown under HDPAT (Figure 16)",
        headers=["Benchmark", "Peer", "Redirect", "Proactive", "IOMMU",
                 "Prefetch acc."],
        rows=rows,
        notes=(
            f"Mean offload (non-IOMMU): {mean_offload:.1%}. "
            "Paper: 42.1% offloaded; prefetch accuracy 65.55%; PR "
            "peer-dominant, MT IOMMU-dominant."
        ),
    )
