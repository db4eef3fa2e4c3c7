"""Figure 5 — GPM execution-time variation with geometric position.

Runs two benchmarks on the baseline wafer and groups per-GPM completion
times by Chebyshev ring around the CPU.  The paper observes centrally
located GPMs finishing consistently earlier — the imbalance HDPAT's
concentric design exploits (observation O2).
"""

from __future__ import annotations

from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    make_job,
)
from repro.noc.topology import MeshTopology
from repro.units import cycles_to_ms

DEFAULT_WORKLOADS = ("spmv", "fir")


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    workloads = tuple(benchmarks) if benchmarks else DEFAULT_WORKLOADS
    config = wafer_7x7_config()
    topology = MeshTopology(config.mesh_width, config.mesh_height)
    rings = sorted(
        {topology.chebyshev_from_cpu(t.coordinate) for t in topology.gpm_tiles}
    )
    jobs = {
        workload: make_job(config, workload, scale, seed)
        for workload in workloads
    }
    cache.warm(jobs.values())
    rows = []
    ratios = {}
    for workload in workloads:
        result = cache.get(jobs[workload])
        by_ring = {ring: [] for ring in rings}
        for tile, finish in zip(topology.gpm_tiles, result.per_gpm_finish):
            by_ring[topology.chebyshev_from_cpu(tile.coordinate)].append(finish)
        means = {
            ring: sum(v) / len(v) for ring, v in by_ring.items() if v
        }
        for ring in rings:
            rows.append(
                [workload.upper(), ring, len(by_ring[ring]),
                 cycles_to_ms(int(means[ring]))]
            )
        ratios[workload] = means[rings[-1]] / means[rings[0]]
    notes = ", ".join(
        f"{w.upper()}: outer/inner exec ratio {r:.2f}" for w, r in ratios.items()
    )
    return ExperimentResult(
        experiment_id="fig05",
        title="GPM execution time by geometric position (Figure 5)",
        headers=["Benchmark", "Ring (hops from CPU)", "GPMs", "Mean exec (ms)"],
        rows=rows,
        notes=notes + ". Paper: central GPMs finish consistently earlier.",
    )
