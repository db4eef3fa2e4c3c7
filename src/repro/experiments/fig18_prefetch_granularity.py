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
    speedup_table,
)

GRANULARITIES = (1, 4, 8)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    names = resolve_benchmarks(benchmarks)
    base_config = wafer_7x7_config()
    configs = {"baseline": base_config}
    configs.update(
        (granularity,
         base_config.with_hdpat(HDPATConfig.full(prefetch_degree=granularity)))
        for granularity in GRANULARITIES
    )
    return speedup_table(
        "fig18",
        "Proactive delivery granularity sweep (Figure 18)",
        ["Benchmark", "1 PTE", "4 PTEs", "8 PTEs"],
        job_grid(configs, names, scale, seed),
        GRANULARITIES,
        names,
        cache,
        notes=(
            "Paper: 1.40x / 1.57x / 1.59x — saturates at 4 PTEs; BT and MT "
            "gain <10% due to irregular access."
        ),
    )
