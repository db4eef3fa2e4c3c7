"""Figure 21 — HDPAT across modern GPU memory-system configurations.

Geometric-mean HDPAT speedup with GPMs configured after AMD MI100 / MI200 /
MI300 and NVIDIA H100 / H200 memory systems.  The paper: 1.47-1.57x on the
AMD parts and larger wins (2.52x / 2.36x) on the big-memory NVIDIA parts.
"""

from __future__ import annotations

from repro.config.hdpat import HDPATConfig
from repro.config.presets import gpm_preset, wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    REPRESENTATIVE_BENCHMARKS,
    RunCache,
    make_job,
    resolve_benchmarks,
)
from repro.units import geomean

GPU_NAMES = ("mi100", "mi200", "mi300", "h100", "h200")


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
    jobs = {
        (gpu, hdpat, name): make_job(
            base.with_hdpat(HDPATConfig.full()) if hdpat else base,
            name, scale, seed,
        )
        for gpu in GPU_NAMES
        for base in (wafer_7x7_config(gpm=gpm_preset(gpu)),)
        for hdpat in (False, True)
        for name in names
    }
    cache.warm(jobs.values())
    rows = []
    for gpu in GPU_NAMES:
        speedups = [
            cache.get(jobs[gpu, True, name]).speedup_over(
                cache.get(jobs[gpu, False, name])
            )
            for name in names
        ]
        rows.append([gpu.upper(), geomean(speedups)])
    return ExperimentResult(
        experiment_id="fig21",
        title="HDPAT geomean speedup across GPU configurations (Figure 21)",
        headers=["GPM config", "HDPAT geomean speedup"],
        rows=rows,
        notes=(
            "Paper: 1.47-1.57x on MI-class parts; 2.52x (H100) and 2.36x "
            "(H200) on large-memory configurations."
        ),
    )
