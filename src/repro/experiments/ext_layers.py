"""Extension ablation — caching layer count C (§IV-C).

Sweeps C = 0..3 on the 7x7 wafer under full HDPAT.  C=0 disables peer
caching entirely (redirection/prefetch have no holders and fall back to
requester-side delivery); the paper defaults to C=2, "one step away from
the border", and says the layer count is firmware-tunable.
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

LAYER_COUNTS = (0, 1, 2, 3)


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
    configs = {"baseline": base_config}
    configs.update(
        (layers,
         base_config.with_hdpat(replace(HDPATConfig.full(), num_layers=layers)))
        for layers in LAYER_COUNTS
    )
    jobs = job_grid(configs, names, scale, seed)
    cache.warm(jobs.values())
    rows = []
    per_layer_speedups = {layers: [] for layers in LAYER_COUNTS}
    for name in names:
        baseline = cache.get(jobs["baseline", name])
        row = [name.upper()]
        for layers in LAYER_COUNTS:
            speedup = cache.get(jobs[layers, name]).speedup_over(baseline)
            per_layer_speedups[layers].append(speedup)
            row.append(speedup)
        rows.append(row)
    rows.append(
        ["GEOMEAN"] + [geomean(per_layer_speedups[c]) for c in LAYER_COUNTS]
    )
    return ExperimentResult(
        experiment_id="ext_layers",
        title="Design ablation: concentric layer count C (§IV-C)",
        headers=["Benchmark"] + [f"C={c}" for c in LAYER_COUNTS],
        rows=rows,
        notes=(
            "Layers trade probe latency on cold misses for shared-reuse "
            "coverage: sharing-heavy workloads (PR, SPMV) want C>=1, while "
            "streaming ones do fine on requester-side delivery alone "
            "(C=0). The paper defaults to C=2."
        ),
    )
