"""Figure 14 — Overall performance: HDPAT vs SOTA vs baseline.

Normalized performance of Trans-FW, Valkyrie, Barre, and HDPAT over the
naive centralized baseline across all 14 benchmarks.  The paper reports a
1.57x average for HDPAT, ahead of every state-of-the-art comparison point.
"""

from __future__ import annotations

from repro.core.baselines.registry import SOTA_NAMES
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    resolve_benchmarks,
    speedup_table,
)
from repro.experiments.sweep import SCHEME_NAMES, cell_job

#: Table columns, in the paper's order.  Jobs are submitted in
#: ``SCHEME_NAMES`` order instead: baseline, HDPAT, then the SOTA schemes.
SCHEMES = ("baseline",) + SOTA_NAMES + ("hdpat",)


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    names = resolve_benchmarks(benchmarks)
    jobs = {
        (scheme, name): cell_job(scheme, name, scale, seed)
        for scheme in SCHEME_NAMES
        for name in names
    }
    return speedup_table(
        "fig14",
        "Overall performance vs baseline and SOTA (Figure 14)",
        ["Benchmark"] + [s.capitalize() for s in SCHEMES],
        jobs,
        SCHEMES,
        names,
        cache,
        notes=(
            "Paper: HDPAT averages 1.57x over baseline and ~1.35x over the "
            "best SOTA; Trans-FW/Valkyrie leave remote requests at the "
            "IOMMU, Barre is bounded by the PW-queue size."
        ),
    )
