"""Extension — mid-run failure, live drain, and hot recovery.

Runs each scheme three ways on the same workload and seed:

* **healthy** — no faults at all;
* **recovered** — drain warnings checkpoint the victim GPMs' hottest
  pages to survivors, links go fail-slow (the CPU's translation artery
  first), the GPMs die, the links are restored, and the GPMs hot
  re-attach: pages migrate back home and the work the kill abandoned is
  re-issued (checkpoint-restart);
* **fail-stop** — the same seeded victims and slow links, but no drain,
  no recovery, no restore: the victims' remaining work is lost and the
  links stay degraded for the rest of the run.

The claim under test is that recovery lands *between* health and
fail-stop: normalised cost per completed access is monotone
``healthy <= recovered <= fail-stop``.  Cost per access (not raw cycles)
is the honest metric — a fail-stopped module finishes *less work*, which
raw makespan would reward.

Timeline cycles are derived per (benchmark, scheme) from the healthy
run's makespan, so the drain/degrade/kill/restore/recover sequence sits
at the same relative phase of every run.
"""

from __future__ import annotations

from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    RunCache,
    make_job,
    resolve_benchmarks,
)
from repro.faults import FaultPlan, recovery_scenario

DEFAULT_WORKLOADS = ("spmv",)

VARIANTS = ("healthy", "recovered", "failstop")

#: Severity of the fail-slow links (effective bandwidth multiplier),
#: how many mesh links degrade, and how many GPMs die.  Several victims
#: on purpose: one module is ~2 % of the wafer's work, so a single
#: fail-stop's lost-work penalty would sit inside run-to-run noise; a
#: handful of victims makes the three-way ordering stable.
BANDWIDTH_FACTOR = 1.0 / 64.0
NUM_SLOW_LINKS = 8
NUM_VICTIMS = 6


def _plan_seed(seed: int) -> int:
    """One scenario seed per run seed: the recovered run and its
    fail-stop control draw the same victim GPM and slow links."""
    return seed * 1013 + 4


def _timeline(config, span: int, seed: int, recover: bool):
    """The drain -> degrade -> kill -> restore -> recover schedule,
    phased against the healthy makespan ``span``.

    The drain runs mostly *before* the links degrade and the links are
    restored *before* the GPMs re-attach, so the recovered run's
    checkpoint, re-home, and redo traffic rides healthy links — while
    the fail-stop control keeps its links (including the CPU's
    translation artery) degraded for the rest of the run.
    """
    kill = max(3, span // 10)
    return recovery_scenario(
        config.mesh_width,
        config.mesh_height,
        seed=_plan_seed(seed),
        kill_cycle=kill,
        recover_cycle=kill + max(4, span // 64) if recover else None,
        drain_cycle=max(1, span // 20) if recover else None,
        degrade_cycle=max(2, kill - max(4, span // 64)),
        restore_cycle=kill + max(2, span // 128) if recover else None,
        bandwidth_factor=BANDWIDTH_FACTOR,
        num_slow_links=NUM_SLOW_LINKS,
        num_victims=NUM_VICTIMS,
    )


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
    base = wafer_7x7_config()
    schemes = [
        ("baseline", base),
        ("hdpat", base.with_hdpat(HDPATConfig.full())),
    ]
    # Phase 1: healthy runs establish each cell's makespan; the timeline
    # cycles derive from it.
    jobs = {
        (name, scheme, "healthy"): make_job(config, name, scale, seed)
        for name in names
        for scheme, config in schemes
    }
    cache.warm(jobs.values())
    # Phase 2: the faulted variants.
    for name in names:
        for scheme, config in schemes:
            span = cache.get(jobs[name, scheme, "healthy"]).exec_cycles
            for variant, recover in (("recovered", True), ("failstop", False)):
                timeline = _timeline(config, span, seed, recover)
                plan = FaultPlan(seed=_plan_seed(seed), timeline=timeline)
                jobs[name, scheme, variant] = make_job(
                    config.with_faults(plan), name, scale, seed
                )
    cache.warm(jobs.values())
    rows = []
    curves = {}
    for name in names:
        for scheme, _config in schemes:
            healthy = cache.get(jobs[name, scheme, "healthy"])
            healthy_cost = (
                healthy.exec_cycles / healthy.extras["completed_accesses"]
            )
            curve = []
            for variant in VARIANTS:
                result = cache.get(jobs[name, scheme, variant])
                completed = result.extras["completed_accesses"]
                slowdown = (result.exec_cycles / completed) / healthy_cost
                counters = (
                    result.extras.get("faults", {}).get("counters", {})
                )
                curve.append((variant, slowdown))
                rows.append([
                    name.upper(),
                    scheme,
                    variant,
                    result.exec_cycles,
                    completed,
                    slowdown,
                    result.mean_rtt,
                    counters.get("timeline.drained_pages", 0),
                    counters.get("timeline.remapped_pages", 0),
                    counters.get("timeline.rehomed_pages", 0),
                    counters.get("timeline.dead_letters", 0),
                ])
            curves[f"{name}.{scheme}"] = curve
    return ExperimentResult(
        experiment_id="ext_recovery",
        title="Extension: mid-run failure, live drain, and hot recovery",
        headers=["Benchmark", "Scheme", "Variant", "Cycles", "Completed",
                 "Slowdown", "Mean RTT", "Drained", "Remapped", "Rehomed",
                 "Dead letters"],
        rows=rows,
        notes=(
            "Slowdown is normalised cost per completed access.  The "
            "recovered run drains hot pages before the kill, re-homes "
            "them on re-attach, and re-issues the abandoned work, landing "
            "between the healthy run and the fail-stop control (which "
            "loses the victim's remaining work and keeps its links "
            "degraded)."
        ),
        series={"recovery": curves},
    )
