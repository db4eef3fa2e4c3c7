"""Chaos faults for the sweep executor's worker pool.

:class:`WorkerFaultPlan` makes executor degradation testable the same
way simulator degradation is (:mod:`repro.faults`): a seeded, frozen,
JSON round-trippable description of what breaks — crash / hang /
slow-down probabilities plus an explicit poison list of job keys that
always crash.  Every verdict is a pure function of ``(plan, job key,
attempt)`` drawn from ``random.Random``, never the global generator, so
a chaos sweep is exactly reproducible: the same plan faults the same
attempts of the same jobs no matter how they are scheduled.  The
attempt is the job's charged-failure count, and the plan is shipped
into each worker via the pool initializer
(:func:`install_worker_fault_plan`), mirroring how
:class:`~repro.faults.plan.FaultPlan` rides on the config.

The pool entry point :func:`execute_job_resilient` applies the
worker-local plan's verdict (crash = hard process death, hang = a long
finite stall, slow = an inflated wall-clock), then runs the job exactly
as :func:`~repro.exec.jobs.execute_job` would — chaos perturbs *timing
and liveness only*, never the simulation, which is what keeps the digest
invariant (chaos run == serial run) provable.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.exec.jobs import RunJob, execute_job, execute_job_observed

#: Chaos verdicts, in precedence order.
OK = "ok"
CRASH = "crash"
HANG = "hang"
SLOW = "slow"

_CRASH_MODES = ("exit", "kill")


@dataclass(frozen=True)
class WorkerFaultPlan:
    """One deterministic chaos scenario for pool workers."""

    seed: int = 0
    #: Per-attempt probability that the worker process dies.
    crash_prob: float = 0.0
    #: Per-attempt probability that the worker stalls for
    #: :attr:`hang_seconds` (finite, so a sweep without timeouts still
    #: terminates — a hung worker eventually recovers, exactly like a
    #: fail-slow link).
    hang_prob: float = 0.0
    #: Per-attempt probability that the job runs at ``1/slow_factor``
    #: effective speed (the worker sleeps off the difference).
    slow_prob: float = 0.0
    slow_factor: float = 4.0
    hang_seconds: float = 5.0
    #: Job keys (see :meth:`RunJob.job_key`) that crash on *every*
    #: attempt — the permanent-failure case the circuit breaker and the
    #: attempt budget exist for.
    poison_keys: Tuple[str, ...] = ()
    #: How a crash verdict kills the process: ``"exit"`` is an immediate
    #: ``os._exit`` (interpreter death), ``"kill"`` is a self-delivered
    #: SIGKILL (host/OOM-killer death).  Both surface to the pool parent
    #: as a broken pool.
    crash_mode: str = "exit"

    def __post_init__(self) -> None:
        for name in ("crash_prob", "hang_prob", "slow_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if self.crash_prob + self.hang_prob + self.slow_prob > 1.0:
            raise ConfigurationError(
                "crash_prob + hang_prob + slow_prob must not exceed 1"
            )
        if self.slow_factor < 1.0:
            raise ConfigurationError(
                f"slow_factor must be >= 1, got {self.slow_factor}"
            )
        if self.hang_seconds < 0.0:
            raise ConfigurationError(
                f"hang_seconds must be >= 0, got {self.hang_seconds}"
            )
        if self.crash_mode not in _CRASH_MODES:
            raise ConfigurationError(
                f"crash_mode must be one of {_CRASH_MODES}, "
                f"got {self.crash_mode!r}"
            )
        object.__setattr__(
            self, "poison_keys", tuple(sorted(set(self.poison_keys)))
        )

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing — a chaos sweep under an
        empty plan must behave byte-identically to a plan-less one."""
        return (
            self.crash_prob == 0.0
            and self.hang_prob == 0.0
            and self.slow_prob == 0.0
            and not self.poison_keys
        )

    def verdict_for(self, job_key: str, attempt: int) -> str:
        """The chaos verdict for one attempt of one job.

        ``job_key`` is the job's stable human identity
        (:meth:`RunJob.job_key`); ``attempt`` is the pool's
        charged-failure count, so verdicts are independent of
        scheduling.  Pure: same plan, key, and
        attempt always give the same verdict.
        """
        if job_key in self.poison_keys:
            return CRASH
        draw = random.Random(f"wfp:{self.seed}:{attempt}:{job_key}").random()
        if draw < self.crash_prob:
            return CRASH
        draw -= self.crash_prob
        if draw < self.hang_prob:
            return HANG
        draw -= self.hang_prob
        if draw < self.slow_prob:
            return SLOW
        return OK

    def die(self) -> None:  # pragma: no cover - exercised in subprocesses
        """Hard process death, no teardown, no flush — exactly what
        SIGKILL does to a real worker."""
        if self.crash_mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(137)

    # ------------------------------------------------------------------
    # Serialization (JSON round-trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "crash_prob": self.crash_prob,
            "hang_prob": self.hang_prob,
            "slow_prob": self.slow_prob,
            "slow_factor": self.slow_factor,
            "hang_seconds": self.hang_seconds,
            "poison_keys": list(self.poison_keys),
            "crash_mode": self.crash_mode,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkerFaultPlan":
        return cls(
            seed=data.get("seed", 0),
            crash_prob=data.get("crash_prob", 0.0),
            hang_prob=data.get("hang_prob", 0.0),
            slow_prob=data.get("slow_prob", 0.0),
            slow_factor=data.get("slow_factor", 4.0),
            hang_seconds=data.get("hang_seconds", 5.0),
            poison_keys=tuple(data.get("poison_keys", ())),
            crash_mode=data.get("crash_mode", "exit"),
        )


# ----------------------------------------------------------------------
# Worker-side plan installation and the chaos-aware pool entry
# ----------------------------------------------------------------------
#: The plan this worker process runs under (set by the pool initializer;
#: None in chaos-free pools and in the parent).
_WORKER_PLAN: Optional[WorkerFaultPlan] = None


def install_worker_fault_plan(data: Optional[Dict[str, object]]) -> None:
    """Process-pool initializer: arm (or disarm) chaos in this worker.

    Workers fork after the sweep installs its SIGINT/SIGTERM handlers, so
    they start with the parent's.  SIGTERM goes back to the default (a
    terminated worker dies, even one orphaned by a killed parent) and
    SIGINT is ignored, so a terminal Ctrl-C drains through the parent.
    """
    global _WORKER_PLAN
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _WORKER_PLAN = WorkerFaultPlan.from_dict(data) if data else None


def execute_job_resilient(
    job: RunJob,
    key: str,
    attempt: int,
    observed: bool = False,
) -> Tuple[object, float, Optional[Dict[str, int]], int]:
    """Pool entry point: chaos-aware job execution with liveness.

    Returns ``(result, wall_seconds, counters_or_None, pid)`` — the pid
    feeds the heartbeat's per-worker last-seen map.
    """
    plan = _WORKER_PLAN
    verdict = OK
    if plan is not None and not plan.is_empty:
        verdict = plan.verdict_for(key, attempt)
        if verdict == CRASH:
            plan.die()
        if verdict == HANG:
            time.sleep(plan.hang_seconds)
    started = perf_counter()
    counters: Optional[Dict[str, int]] = None
    if observed:
        result, _wall, counters = execute_job_observed(job)
    else:
        result = execute_job(job)
    if verdict == SLOW and plan is not None:
        busy = perf_counter() - started
        time.sleep(busy * (plan.slow_factor - 1.0))
    return result, perf_counter() - started, counters, os.getpid()


__all__ = [
    "CRASH",
    "HANG",
    "OK",
    "SLOW",
    "WorkerFaultPlan",
    "execute_job_resilient",
    "install_worker_fault_plan",
]
