"""Figure 13 — Size-invariance of IOMMU pressure (FIR at three sizes).

Runs FIR at three problem sizes, aggregates IOMMU-served translations into
fixed 100k-cycle windows, and compares the peak-normalised shapes.  The
paper uses the similarity of these shapes to justify small problem sizes
as proxies for large ones.
"""

from __future__ import annotations

from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    make_job,
)
from repro.stats.timeseries import normalized_shape

SIZE_FACTORS = (0.5, 1.0, 2.0)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    workload = (benchmarks[0] if isinstance(benchmarks, (list, tuple)) and benchmarks
                else "fir")
    config = wafer_7x7_config()
    jobs = {
        factor: make_job(config, workload, min(1.0, scale * factor), seed)
        for factor in SIZE_FACTORS
    }
    cache.warm(jobs.values())
    shapes = {}
    rows = []
    for factor in SIZE_FACTORS:
        result = cache.get(jobs[factor])
        windows = result.extras["iommu_analyzers"]["served_window"]
        # Re-bin the fine-grained counter to ~20 windows per run so the
        # shapes are comparable across problem sizes (the paper's fixed
        # 100k-cycle window plays the same role at full scale).
        shape = _rebin(normalized_shape(windows), target_bins=20)
        shapes[factor] = shape
        steady = [v for v in shape if v > 0]
        mean_level = sum(steady) / len(steady) if steady else 0.0
        rows.append(
            [
                f"{factor:.1f}x size",
                result.iommu_requests,
                len(shape),
                mean_level,
            ]
        )
    correlations = [
        _shape_similarity(shapes[SIZE_FACTORS[0]], shapes[factor])
        for factor in SIZE_FACTORS[1:]
    ]
    notes = (
        "Normalized-shape similarity vs smallest size: "
        + ", ".join(f"{c:.2f}" for c in correlations)
        + ". Paper: similar shapes => size-invariant translation behaviour."
    )
    return ExperimentResult(
        experiment_id="fig13",
        title=f"IOMMU-served requests over time, {workload.upper()} (Figure 13)",
        headers=["Problem size", "IOMMU requests", "Windows", "Mean level"],
        rows=rows,
        notes=notes,
        series={f"{f:.1f}x": shapes[f] for f in SIZE_FACTORS},
    )


def _shape_similarity(a, b) -> float:
    """Mean absolute agreement of two peak-normalised shapes, resampled to
    the shorter length (1.0 = identical shapes)."""
    if not a or not b:
        return 0.0
    length = min(len(a), len(b))
    resampled_a = _resample(a, length)
    resampled_b = _resample(b, length)
    error = sum(abs(x - y) for x, y in zip(resampled_a, resampled_b)) / length
    return max(0.0, 1.0 - error)


def _resample(values, length):
    if len(values) == length:
        return list(values)
    return [values[int(i * len(values) / length)] for i in range(length)]


def _rebin(values, target_bins):
    """Aggregate fine bins into ~target_bins coarse ones (mean), then
    re-normalise to the new peak."""
    if not values:
        return []
    group = max(1, len(values) // target_bins)
    coarse = [
        sum(values[i : i + group]) / group
        for i in range(0, len(values), group)
    ]
    peak = max(coarse)
    return [v / peak for v in coarse] if peak else coarse
