"""Figure 17 — Remote translation round-trip time, HDPAT vs baseline.

Round-trip time from dispatching a remote translation to receiving the
PFN, normalized to the baseline.  The paper reports a 41 % average
reduction, with only 0.82 % additional NoC traffic.
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
    cache.warm(jobs.values())
    rows = []
    ratios = []
    traffic_deltas = []
    for name in names:
        baseline = cache.get(jobs["baseline", name])
        hdpat = cache.get(jobs["hdpat", name])
        ratio = (
            hdpat.mean_rtt / baseline.mean_rtt if baseline.mean_rtt else 1.0
        )
        ratios.append(ratio)
        if baseline.total_link_bytes:
            traffic_deltas.append(
                (hdpat.total_link_bytes - baseline.total_link_bytes)
                / baseline.total_link_bytes
            )
        rows.append([name.upper(), baseline.mean_rtt, hdpat.mean_rtt, ratio])
    mean_ratio = sum(ratios) / len(ratios) if ratios else 1.0
    mean_traffic = (
        sum(traffic_deltas) / len(traffic_deltas) if traffic_deltas else 0.0
    )
    rows.append(["MEAN", "-", "-", mean_ratio])
    return ExperimentResult(
        experiment_id="fig17",
        title="Remote translation round-trip time (Figure 17)",
        headers=["Benchmark", "Baseline RTT", "HDPAT RTT", "Normalized"],
        rows=rows,
        notes=(
            f"Mean RTT reduction: {1 - mean_ratio:.1%}; NoC traffic delta: "
            f"{mean_traffic:+.2%} (paper: 41% RTT saving, +0.82% traffic — "
            "our synthetic traces carry far less data-side traffic per "
            "translation than real kernels, so the same extra translation "
            "bytes are a larger fraction of the total here)."
        ),
    )
