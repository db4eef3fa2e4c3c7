"""Extension — intelligent page migration on top of HDPAT (§VI future work).

Adds the migration engine (move a page to the GPM that walks it, paying a
page copy plus a wafer-wide shootdown) to the full HDPAT configuration
and measures what changes.  The finding is a *negative* result that
supports the paper's scoping decision: once HDPAT's TLBs, peer caches,
redirection, and prefetching have soaked up the reuse, walk-triggered
migration finds little stable residual affinity — streaming pages are
walked once per GPM (migration arrives too late to help), and hub pages
ping-pong into the cooldown.  Migration at first-touch is neutral-to-
slightly-harmful here; smarter placement is exactly the open problem the
paper defers ("intelligent page migration", §VI).
"""

from __future__ import annotations

from repro.config.hdpat import HDPATConfig
from repro.config.migration import MigrationConfig
from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    job_grid,
    resolve_benchmarks,
)
from repro.units import geomean

DEFAULT_WORKLOADS = ("fir", "km", "relu", "mm", "pr", "mt", "spmv")


def run(
    scale: float = DEFAULT_SCALE,
    benchmarks=None,
    seed: int = 42,
    cache: RunCache = None,
) -> ExperimentResult:
    cache = cache or RunCache()
    names = resolve_benchmarks(
        benchmarks if benchmarks is not None else list(DEFAULT_WORKLOADS)
    )
    base_config = wafer_7x7_config()
    hdpat_config = base_config.with_hdpat(HDPATConfig.full())
    migration_config = hdpat_config.with_migration(
        MigrationConfig(enabled=True, threshold=1, cooldown_cycles=20_000)
    )
    configs = {
        "baseline": base_config,
        "hdpat": hdpat_config,
        "migrated": migration_config,
    }
    jobs = job_grid(configs, names, scale, seed)
    cache.warm(jobs.values())
    rows = []
    ratios = []
    for name in names:
        baseline = cache.get(jobs["baseline", name])
        hdpat = cache.get(jobs["hdpat", name])
        migrated = cache.get(jobs["migrated", name])
        hdpat_speedup = hdpat.speedup_over(baseline)
        migrated_speedup = migrated.speedup_over(baseline)
        ratios.append(migrated_speedup / hdpat_speedup)
        stats = migrated.extras.get("migration", {})
        rows.append(
            [
                name.upper(),
                hdpat_speedup,
                migrated_speedup,
                stats.get("migrations", 0),
                stats.get("rejected_cooldown", 0),
            ]
        )
    rows.append(["GEOMEAN-RATIO", "-", geomean(ratios), "-", "-"])
    return ExperimentResult(
        experiment_id="ext_migration",
        title="Extension: HDPAT + page migration (future work, §VI)",
        headers=["Benchmark", "HDPAT", "HDPAT+migration", "Migrations",
                 "Cooldown rejects"],
        rows=rows,
        notes=(
            "Negative result supporting the paper's scoping: with HDPAT "
            "absorbing the reuse, first-touch migration is neutral to "
            "slightly harmful (copies + shootdowns buy no locality that "
            "the TLBs and peer caches hadn't already captured)."
        ),
    )
