"""repro.exec — parallel, cached, fault-tolerant experiment execution.

The execution substrate for the figure harnesses and ad-hoc sweeps:
picklable :class:`RunJob` descriptions, a content-addressed on-disk
:class:`DiskResultCache` (L2 under ``RunCache``'s in-memory L1), and the
:class:`SweepExecutor` that shards jobs across a process pool with
timeout/retry robustness and ``sweep.jobs.*`` progress metrics.  The
disk cache is also the checkpoint: each result is stored as it
completes, so an interrupted sweep resumes by rerunning it against the
same cache directory.  :mod:`repro.exec.resilience` adds chaos testing:
one seeded :class:`WorkerFaultPlan` faults pool workers, and every job
gets the same attempt budget, :data:`~repro.exec.jobs.MAX_ATTEMPTS`.

See docs/EXECUTION.md for the cache-key composition, the resilience
model, and CLI examples.
"""

from repro.exec.diskcache import DiskResultCache
from repro.exec.executor import SweepExecutor, default_jobs
from repro.exec.jobs import (
    CACHE_SCHEMA,
    JobFailure,
    RunJob,
    execute_job,
    execute_job_observed,
    make_job,
)
from repro.exec.progress import SweepHeartbeat, read_heartbeats, read_jsonl_prefix
from repro.exec.resilience import (
    WorkerFaultPlan,
    execute_job_resilient,
    install_worker_fault_plan,
)

__all__ = [
    "CACHE_SCHEMA",
    "DiskResultCache",
    "JobFailure",
    "RunJob",
    "SweepExecutor",
    "SweepHeartbeat",
    "WorkerFaultPlan",
    "default_jobs",
    "execute_job",
    "execute_job_observed",
    "execute_job_resilient",
    "install_worker_fault_plan",
    "make_job",
    "read_heartbeats",
    "read_jsonl_prefix",
]
