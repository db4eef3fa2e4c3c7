"""Figure 20 — System page-size sensitivity.

Geometric-mean performance at 4K/16K/64K pages with and without HDPAT,
normalized to the 4 KB baseline.  The paper: larger pages help the
baseline by shrinking translation volume, and HDPAT keeps a ~50 %
advantage at every page size — the mechanisms are orthogonal.
"""

from __future__ import annotations

from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    REPRESENTATIVE_BENCHMARKS,
    RunCache,
    make_job,
    resolve_benchmarks,
)
from repro.mem.address import PAGE_SIZE_4K, PAGE_SIZE_16K, PAGE_SIZE_64K
from repro.units import geomean

PAGE_SIZES = (PAGE_SIZE_4K, PAGE_SIZE_16K, PAGE_SIZE_64K)


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
        (page_size, hdpat, name): make_job(
            base.with_hdpat(HDPATConfig.full()) if hdpat else base,
            name, scale, seed,
        )
        for page_size in PAGE_SIZES
        for base in (wafer_7x7_config().with_page_size(page_size),)
        for hdpat in (False, True)
        for name in names
    }
    cache.warm(jobs.values())
    rows = []
    reference = None
    advantages = []
    for page_size in PAGE_SIZES:
        base_cycles = [
            cache.get(jobs[page_size, False, name]).exec_cycles
            for name in names
        ]
        hdpat_cycles = [
            cache.get(jobs[page_size, True, name]).exec_cycles
            for name in names
        ]
        if reference is None:
            reference = base_cycles
        base_norm = geomean(
            ref / cur for ref, cur in zip(reference, base_cycles)
        )
        hdpat_norm = geomean(
            ref / cur for ref, cur in zip(reference, hdpat_cycles)
        )
        advantages.append(hdpat_norm / base_norm)
        rows.append(
            [f"{page_size // 1024}K", base_norm, hdpat_norm,
             hdpat_norm / base_norm]
        )
    return ExperimentResult(
        experiment_id="fig20",
        title="Page-size sensitivity, geomean normalized to 4K baseline "
              "(Figure 20)",
        headers=["Page size", "Baseline", "HDPAT", "HDPAT advantage"],
        rows=rows,
        notes=(
            f"HDPAT advantage across sizes: "
            + ", ".join(f"{a:.2f}x" for a in advantages)
            + ". Paper: ~1.5x advantage maintained at all page sizes."
        ),
    )
