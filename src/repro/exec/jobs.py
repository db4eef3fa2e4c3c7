"""Sweep jobs: the unit of work the execution subsystem shards and caches.

A :class:`RunJob` is a frozen, hashable, picklable description of one
benchmark run: the *unscaled* :class:`~repro.config.SystemConfig`, the
workload name, the scale/seed, and any extra ``run_benchmark`` keyword
arguments.  The config is the whole identity of the simulated model —
the SOTA baselines are config values too — so two equal jobs always
produce the same result.  :func:`execute_job` runs one: it applies the
scaled-capacity methodology and runs the benchmark.  It is the only way
a job runs — in-process or in a pool worker — so every path produces the
same result.

Every job is reproducible anywhere
----------------------------------
A job carries only JSON-able values beside its config:
:func:`make_job` rejects any run kwarg that is not a JSON scalar.  So any
process can rebuild any job, and its result — extras included —
round-trips the disk cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config.scaling import capacity_scaled
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError
from repro.system.result import RunResult
from repro.system.runner import OBS_EXTRAS, run_benchmark

#: Bumped whenever simulator semantics change in a way that invalidates
#: previously cached results without changing any config/workload identity
#: (e.g. a correctness fix in the NoC accounting).  Part of every disk
#: cache key — see docs/EXECUTION.md for when to bump vs when to wipe.
#: 2: SystemConfig grew a ``faults`` field (its repr — and thus every
#: key's material — changed shape).
#: 3: FaultPlan grew a ``timeline`` field and fail-slow link events
#: (plan repr changed shape; serialisation accounting changed).
#: 4: MSHR-stalled accesses wake one per freed slot, in FIFO order, with
#: the slot reserved across their re-probe (runs that fill the MSHRs,
#: e.g. spmv/pr/mt, moved slightly).
#: 5: entries store the run's extras beside ``result`` (entry shape only;
#: the model did not change).
#: 6: the key material lost its policy-key line (key shape only: the
#: SOTA baselines became config values; the model did not change).
CACHE_SCHEMA = 6

#: Attempts per job (the first run plus retries) before the pool records
#: it as failed; worker exceptions and worker crashes are both charged.
MAX_ATTEMPTS = 3

#: run_benchmark kwargs value types a job may carry (JSON scalars).
_SIMPLE = (int, float, str, bool, type(None))


@dataclass(frozen=True)
class RunJob:
    """One (config, workload, scale, seed) cell of a sweep.

    Equal jobs hash equal, so the job itself is the in-process cache key.
    """

    config: SystemConfig
    workload: str
    scale: float
    seed: Optional[int] = None
    #: Sorted ``(name, value)`` pairs of extra run_benchmark kwargs.
    run_kwargs: Tuple[Tuple[str, object], ...] = ()

    def cache_key(self) -> str:
        """Content-addressed disk (L2) key.

        Hashes the full config repr (complete identity, unlike the lossy
        ``describe()`` line), the workload/scale/seed coordinates,
        the extra kwargs, and the code version, so results from a different
        configuration or an older simulator can never be served.
        """
        from repro import __version__

        material = "\n".join((
            f"schema={CACHE_SCHEMA}",
            f"version={__version__}",
            repr(self.config),
            self.workload,
            f"{self.scale:.9f}",
            str(self.seed),
            repr(sorted(self.run_kwargs)),
        ))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def job_key(self) -> str:
        """Stable human-readable identity for chaos fault plans.

        Unlike :meth:`cache_key` this is version-independent (so a
        :class:`~repro.exec.resilience.WorkerFaultPlan`'s poison list
        survives a code bump) yet still collision-free across sweep
        cells: the trailing hash fragment separates configs that share
        workload/scale/seed coordinates.  The fixed ``config`` segment
        stays in the text so a seeded plan's victims do not move.
        """
        config_tag = hashlib.sha256(
            repr(self.config).encode("utf-8")
        ).hexdigest()[:8]
        return (
            f"{self.workload}@{self.scale:g}/s{self.seed}"
            f"/config/{config_tag}"
        )

    def describe(self) -> Dict[str, object]:
        """Human-readable identity for failure records and cache metadata."""
        return {
            "workload": self.workload,
            "config": self.config.describe(),
            "scale": self.scale,
            "seed": self.seed,
            "run_kwargs": dict(self.run_kwargs),
        }


def make_job(
    config: SystemConfig,
    workload: str,
    scale: float,
    seed: Optional[int] = None,
    **run_kwargs,
) -> RunJob:
    """Normalise run arguments into a :class:`RunJob`.

    Raises :class:`~repro.errors.ConfigurationError` for a job no other
    process could rebuild: a run kwarg that is not a JSON scalar.
    """
    for name, value in run_kwargs.items():
        if not isinstance(value, _SIMPLE):
            raise ConfigurationError(
                f"run kwarg {name}={value!r} is not a JSON scalar"
            )
    return RunJob(
        config=config,
        workload=workload,
        scale=scale,
        seed=seed,
        run_kwargs=tuple(sorted(run_kwargs.items())),
    )


def execute_job(job: RunJob, obs=None) -> RunResult:
    """Run one job to completion.

    Scaled-capacity config and explicit seed.  Determinism of the simulator makes the returned
    :class:`RunResult` identical wherever it runs.
    """
    return run_benchmark(
        capacity_scaled(job.config, job.scale),
        job.workload,
        scale=job.scale,
        seed=job.seed,
        obs=obs,
        **dict(job.run_kwargs),
    )


def execute_job_observed(
    job: RunJob,
) -> Tuple[RunResult, float, Dict[str, int]]:
    """Pool entry point that also ships the worker's metrics home.

    Runs the job under a metrics-enabled :class:`~repro.obs.Observability`
    and returns ``(result, wall_seconds, counters)`` where ``counters`` is
    the integer slice of the worker registry's flat export — the only part
    that merges losslessly across processes (see
    :meth:`~repro.obs.metrics.MetricsRegistry.merge_counters`).  The
    parent folds these into its own registry, so a parallel sweep ends
    with the same sweep-wide totals a serial one accumulates in place.
    The result drops its :data:`~repro.system.runner.OBS_EXTRAS`, so it
    (and its cache file) matches an unobserved run's.
    """
    from time import perf_counter

    from repro.obs import Observability

    obs = Observability(metrics=True)
    started = perf_counter()
    result = execute_job(job, obs)
    wall = perf_counter() - started
    for key in OBS_EXTRAS:
        result.extras.pop(key, None)
    counters = {
        name: value
        for name, value in obs.registry.flat().items()
        if isinstance(value, int)
    }
    return result, wall, counters


@dataclass
class JobFailure:
    """Structured record of a job that could not produce a result."""

    job: Dict[str, object]
    error: str
    attempts: int
    wall_seconds: float
    kind: str = "error"  # "error" | "timeout" | "crash"

    def to_dict(self) -> Dict[str, object]:
        return {
            "job": self.job,
            "error": self.error,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
            "kind": self.kind,
        }
