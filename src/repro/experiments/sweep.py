"""Ad-hoc config×workload sweeps (the CLI ``sweep`` verb).

Runs every cell of a scheme × benchmark × scale × seed grid through the
shared :class:`~repro.experiments.common.RunCache` — parallel and
disk-cached when the cache carries a
:class:`~repro.exec.SweepExecutor` — and reports one row per cell.
A failed cell becomes a ``FAILED`` row (the executor keeps the structured
:class:`~repro.exec.jobs.JobFailure` record); the rest of the grid still
completes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.config.system import SystemConfig
from repro.core.baselines.registry import SOTA_NAMES, sota_system_config
from repro.errors import ReproError
from repro.exec.jobs import RunJob
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    make_job,
    resolve_benchmarks,
)

#: Translation schemes the grid understands, in report order.
SCHEME_NAMES = ("baseline", "hdpat") + SOTA_NAMES


def scheme_config(scheme: str, base: Optional[SystemConfig] = None) -> SystemConfig:
    """The system configuration a named scheme runs under."""
    base = base if base is not None else wafer_7x7_config()
    if scheme == "baseline":
        return base
    if scheme == "hdpat":
        return base.with_hdpat(HDPATConfig.full())
    if scheme in SOTA_NAMES:
        return sota_system_config(scheme, base)
    raise ReproError(
        f"unknown scheme {scheme!r}; available: {list(SCHEME_NAMES)}"
    )


def grid_cells(
    schemes: Optional[Sequence[str]] = None,
    benchmarks=None,
    scales: Optional[Sequence[float]] = None,
    seeds: Optional[Sequence[int]] = None,
) -> List[Tuple[str, str, float, int]]:
    """Expand a grid into cells in canonical order (scheme x benchmark x
    scale x seed), validating every axis.  The service admits campaigns
    through this too, so its cells are the sweep's cells."""
    schemes = list(schemes) if schemes else ["baseline", "hdpat"]
    for scheme in schemes:
        if scheme not in SCHEME_NAMES:
            raise ReproError(
                f"unknown scheme {scheme!r}; available: {list(SCHEME_NAMES)}"
            )
    names = resolve_benchmarks(benchmarks)
    scales = [float(s) for s in scales] if scales else [DEFAULT_SCALE]
    seeds = [int(s) for s in seeds] if seeds else [42]
    return [
        (scheme, name, cell_scale, cell_seed)
        for scheme in schemes
        for name in names
        for cell_scale in scales
        for cell_seed in seeds
    ]


def cell_job(scheme: str, workload: str, scale: float, seed: int) -> RunJob:
    """The :class:`RunJob` for one grid cell — shared with the service, so
    its content addresses are interchangeable with serial runs (that
    identity is what makes result tables byte-comparable)."""
    return make_job(
        scheme_config(scheme),
        workload,
        float(scale),
        seed=int(seed),
        policy_key=scheme if scheme in SOTA_NAMES else "",
    )


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
    schemes: Optional[Sequence[str]] = None,
    scales: Optional[Sequence[float]] = None,
    seeds: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Run the grid and return one table row per cell."""
    cache = cache or RunCache()
    cells = grid_cells(schemes, benchmarks, scales or [scale], seeds or [seed])
    jobs = {cell: cell_job(*cell) for cell in cells}
    cache.warm(jobs.values())

    baselines: Dict[tuple, object] = {}
    rows: List[List[object]] = []
    failed = 0
    for cell in cells:
        scheme, name, cell_scale, cell_seed = cell
        try:
            result = cache.get(jobs[cell])
        except Exception as exc:
            failed += 1
            rows.append(
                [scheme, name.upper(), cell_scale, cell_seed,
                 "FAILED", "-", "-", repr(exc)]
            )
            continue
        if scheme == "baseline":
            baselines[(name, cell_scale, cell_seed)] = result
        baseline = baselines.get((name, cell_scale, cell_seed))
        speedup = (
            result.speedup_over(baseline) if baseline is not None else float("nan")
        )
        rows.append(
            [scheme, name.upper(), cell_scale, cell_seed,
             result.exec_cycles, speedup, result.local_fraction(), ""]
        )
    notes = (
        f"{len(cells)} cells ({failed} failed); speedup normalised to the "
        "baseline scheme at the same (benchmark, scale, seed) when swept."
    )
    return ExperimentResult(
        experiment_id="sweep",
        title="Ad-hoc scheme x benchmark x scale x seed sweep",
        headers=["Scheme", "Benchmark", "Scale", "Seed", "Exec cycles",
                 "Speedup", "Local frac", "Error"],
        rows=rows,
        notes=notes,
    )
