"""Sweep jobs: the unit of work the execution subsystem shards and caches.

A :class:`RunJob` is a fully picklable description of one benchmark run —
the *unscaled* :class:`~repro.config.SystemConfig`, the workload name, the
scale/seed, a policy key, and any extra ``run_benchmark`` keyword
arguments.  :func:`execute_job` is the process-pool worker: it revives the
policy from the key, applies the scaled-capacity methodology, and runs the
benchmark exactly the way ``RunCache.get`` does in-process, so serial and
parallel execution produce byte-identical results.

Policy revival contract
-----------------------
Lambdas do not cross process boundaries, so a job carries only its
``policy_key``.  When the key names a SOTA baseline (``transfw`` /
``valkyrie`` / ``barre``) the worker rebuilds the policy via
:func:`~repro.core.baselines.registry.sota_policy`; any other key is a
pure cache-namespacing label and means "config-derived policy".  Harnesses
that pass a *custom* ``policy_factory`` under a non-SOTA key are still
correct — those jobs are simply not pool-safe and run in-process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config.scaling import capacity_scaled
from repro.config.system import SystemConfig
from repro.core.baselines.registry import SOTA_NAMES, sota_policy
from repro.system.result import RunResult
from repro.system.runner import run_benchmark

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
CACHE_SCHEMA = 4

#: Attempts per job (the first run plus retries) before it is recorded as
#: failed — one budget for the local pool (charged failures) and the
#: service ledger (failures and expired leases).
MAX_ATTEMPTS = 3

#: run_benchmark kwargs value types a job may carry across processes.
_SIMPLE = (int, float, str, bool, type(None))


@dataclass(frozen=True)
class RunJob:
    """One (config, workload, scale, seed, policy) cell of a sweep."""

    config: SystemConfig
    workload: str
    scale: float
    seed: Optional[int] = None
    policy_key: str = ""
    #: Sorted ``(name, value)`` pairs of extra run_benchmark kwargs.
    run_kwargs: Tuple[Tuple[str, object], ...] = ()
    #: Rich jobs need live analyzer/series objects on the result; they are
    #: executed and memory-cached normally but never *served* from the
    #: JSON disk cache (which cannot carry live objects).
    rich: bool = False

    @property
    def memory_key(self) -> str:
        """The in-process (L1) cache key — RunCache's historical format."""
        return "|".join(
            (repr(self.config), self.workload, f"{self.scale:.6f}",
             str(self.seed), self.policy_key,
             repr(sorted(self.run_kwargs)))
        )

    def cache_key(self) -> str:
        """Content-addressed disk (L2) key.

        Hashes the full config repr (complete identity, unlike the lossy
        ``describe()`` line), the workload/scale/seed/policy coordinates,
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
            self.policy_key,
            repr(sorted(self.run_kwargs)),
        ))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def job_key(self) -> str:
        """Stable human-readable identity for chaos fault plans.

        Unlike :meth:`cache_key` this is version-independent (so a
        :class:`~repro.exec.resilience.WorkerFaultPlan`'s poison list
        survives a code bump) yet still collision-free across sweep
        cells: the trailing hash fragment separates configs that share
        workload/scale/seed/policy coordinates.
        """
        config_tag = hashlib.sha256(
            repr(self.config).encode("utf-8")
        ).hexdigest()[:8]
        return (
            f"{self.workload}@{self.scale:g}/s{self.seed}"
            f"/{self.policy_key or 'config'}/{config_tag}"
        )

    def pool_safe(self, policy_factory=None) -> bool:
        """Whether a worker process can reproduce this job exactly.

        Requires a revivable policy (no factory, or a SOTA key honouring
        the revival contract above) and simple picklable kwargs.
        """
        if policy_factory is not None and self.policy_key not in SOTA_NAMES:
            return False
        return all(
            isinstance(value, _SIMPLE) for _name, value in self.run_kwargs
        )

    def describe(self) -> Dict[str, object]:
        """Human-readable identity for failure records and cache metadata."""
        return {
            "workload": self.workload,
            "config": self.config.describe(),
            "scale": self.scale,
            "seed": self.seed,
            "policy_key": self.policy_key,
            "run_kwargs": dict(self.run_kwargs),
        }


def make_job(
    config: SystemConfig,
    workload: str,
    scale: float,
    seed: Optional[int] = None,
    policy_key: str = "",
    rich: bool = False,
    **run_kwargs,
) -> RunJob:
    """Normalise ``RunCache.get``-style arguments into a :class:`RunJob`."""
    return RunJob(
        config=config,
        workload=workload,
        scale=scale,
        seed=seed,
        policy_key=policy_key,
        run_kwargs=tuple(sorted(run_kwargs.items())),
        rich=rich,
    )


def revive_policy(job: RunJob):
    """Rebuild the policy override a worker must run ``job`` under."""
    if job.policy_key in SOTA_NAMES:
        # Matches the harnesses' factories: SOTA policies are built from
        # the *unscaled* config's HDPAT block (capacity_scaled never
        # touches hdpat, so this is exact).
        return sota_policy(job.policy_key, job.config.hdpat)
    return None


def execute_job(job: RunJob, policy=None) -> RunResult:
    """Process-pool worker: run one job to completion.

    Mirrors ``RunCache.get``'s execution path bit-for-bit: scaled-capacity
    config, explicit seed, policy override (``policy``, or the one revived
    from the job's key).  Determinism of the simulator makes the returned
    :class:`RunResult` identical to a serial run.
    """
    return run_benchmark(
        capacity_scaled(job.config, job.scale),
        job.workload,
        scale=job.scale,
        seed=job.seed,
        policy=revive_policy(job) if policy is None else policy,
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
    """
    from time import perf_counter

    from repro.obs import Observability

    obs = Observability(metrics=True)
    kwargs = dict(job.run_kwargs)
    kwargs["obs"] = obs
    started = perf_counter()
    result = run_benchmark(
        capacity_scaled(job.config, job.scale),
        job.workload,
        scale=job.scale,
        seed=job.seed,
        policy=revive_policy(job),
        **kwargs,
    )
    wall = perf_counter() - started
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
