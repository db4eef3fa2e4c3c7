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
    speedup_table,
)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    names = resolve_benchmarks(
        benchmarks if benchmarks is not None else REPRESENTATIVE_BENCHMARKS
    )
    base_config = wafer_7x12_config()
    configs = {
        "baseline": base_config,
        "hdpat": base_config.with_hdpat(HDPATConfig.full()),
    }
    return speedup_table(
        "fig22",
        "HDPAT on the 7x12 wafer (83 GPMs) (Figure 22)",
        ["Benchmark", "HDPAT speedup"],
        job_grid(configs, names, scale, seed),
        ["hdpat"],
        names,
        cache,
        notes="Paper: all workloads gain; geometric mean 1.49x.",
    )
