"""The job ledger: a file-backed, fcntl-locked lease table for multi-host
sweeps.

One JSON document (``ledger.json`` under the service root) holds every
job the service has ever been asked to run, keyed by the job's sha256
:meth:`~repro.exec.jobs.RunJob.cache_key` — the same content address the
:class:`~repro.exec.diskcache.DiskResultCache` stores results under, so
"is this job done" and "is its result on disk" are the same question.
Every mutation is one flat critical section under an advisory
:func:`~repro.exec.locking.file_lock`: load the document, mutate,
atomically replace.  Hosts share nothing else — no sockets, no broker —
which is what lets a worker host be SIGKILLed at any instruction without
corrupting coordination state.

Job state machine::

    pending ──claim──▶ leased ──commit──▶ done
       ▲                 │
       │ fail or expiry  │ fail or expiry
       │ (budget left)   │ (budget spent)
       └─────────────────┴──────────────▶ failed

Leases carry a TTL and are renewed by host heartbeats; a host that
crashes, stalls, or is SIGKILLed simply stops renewing, its leases
expire, and any surviving host's next :meth:`JobLedger.claim` returns
the work to the pool (``steals`` counts each expiry).  A failure report
and an expired lease each charge one attempt against the same
:data:`~repro.exec.jobs.MAX_ATTEMPTS` budget the local pool uses, so a
job that kills every host claiming it is marked ``failed`` instead of
cycling forever.  Execution is
therefore *at least once*; it becomes effectively exactly-once at
:meth:`JobLedger.commit`, which is first-writer-wins on the content
address — a late commit of an already-done key is a counted dedup, not
a second result (both hosts computed byte-identical JSON anyway, by the
determinism invariant).

Tenancy: every campaign belongs to a tenant with a ``weight`` and an
optional ``queue_cap``.  :meth:`JobLedger.submit` rejects a campaign
with a typed :class:`~repro.errors.BackPressureError` when the tenant's
pending+leased depth would exceed its cap (admission control — other
tenants are unaffected), and :meth:`JobLedger.claim` dispatches across
tenants by weighted fairness: the tenant with the smallest
``dispatched / weight`` virtual time is served first, ties broken by
name, so a 3:1 weight split yields a 3:1 dispatch split regardless of
submission order.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    BackPressureError,
    CampaignError,
    ExecConfigError,
    ServiceError,
)
from repro.exec.jobs import MAX_ATTEMPTS
from repro.exec.locking import atomic_write_json, file_lock, read_json

#: Ledger document schema version (bump on incompatible layout change).
LEDGER_VERSION = 1

#: Job states, in lifecycle order.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: Default lease TTL — must comfortably exceed one host's claim batch
#: wall-time, since hosts renew between batches, not mid-job.
DEFAULT_LEASE_TTL = 30.0


class JobLedger:
    """Shared lease table over ``<root>/ledger.json``.

    Every public method is one atomic locked transaction; instances hold
    no cached state between calls, so any number of coordinator and host
    processes can operate on the same root concurrently.
    """

    def __init__(
        self,
        root,
        create: bool = False,
        lease_ttl: Optional[float] = None,
    ) -> None:
        self.root = Path(root)
        self.path = self.root / "ledger.json"
        self._lock_path = str(self.root / "ledger.lock")
        if lease_ttl is not None and lease_ttl <= 0:
            raise ExecConfigError(
                f"lease_ttl must be positive, got {lease_ttl}"
            )
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
            with self._transaction(create=True) as state:
                if lease_ttl is not None:
                    state["config"]["lease_ttl"] = float(lease_ttl)
        elif not self.path.exists():
            raise ServiceError(
                f"no job ledger at {self.path} — submit a campaign first "
                "(hdpat-experiments submit --service-dir ...)"
            )

    # ------------------------------------------------------------------
    # Locked state transactions
    # ------------------------------------------------------------------
    @staticmethod
    def _fresh_state() -> Dict[str, object]:
        return {
            "version": LEDGER_VERSION,
            "config": {"lease_ttl": DEFAULT_LEASE_TTL},
            "seq": 0,
            "order": 0,
            "tenants": {},
            "campaigns": {},
            "jobs": {},
            "counters": {
                "expired_leases": 0,
                "dedup_commits": 0,
                "claims": 0,
            },
        }

    @contextmanager
    def _transaction(
        self, create: bool = False
    ) -> Iterator[Dict[str, object]]:
        """Exclusive read-modify-write on the ledger document."""
        with file_lock(self._lock_path):
            state = read_json(str(self.path))
            if state is None:
                if not create:
                    raise ServiceError(f"job ledger vanished: {self.path}")
                state = self._fresh_state()
            if state.get("version") != LEDGER_VERSION:
                raise ServiceError(
                    f"ledger {self.path} has version "
                    f"{state.get('version')!r}; this code speaks "
                    f"{LEDGER_VERSION}"
                )
            yield state
            state["seq"] = int(state["seq"]) + 1
            atomic_write_json(str(self.path), state)

    def _read(self) -> Dict[str, object]:
        """Shared read of the current document (no mutation)."""
        with file_lock(self._lock_path):
            state = read_json(str(self.path))
        if state is None:
            raise ServiceError(f"no job ledger at {self.path}")
        return state

    # ------------------------------------------------------------------
    # Submission (admission control)
    # ------------------------------------------------------------------
    def submit(
        self,
        campaign: str,
        tenant: str,
        entries: Sequence[Tuple[str, Sequence[object], str]],
        grid: Optional[Dict[str, object]] = None,
        weight: float = 1.0,
        queue_cap: Optional[int] = None,
        precommitted: Optional[set] = None,
    ) -> Dict[str, object]:
        """Admit a named campaign: register its jobs, or reject whole.

        ``entries`` is the expanded grid as ``(cache_key, cell,
        job_key)`` tuples in deterministic cell order; ``precommitted``
        names keys whose result already sits in the shared disk cache
        (they enter the ledger as ``done`` and never consume queue
        depth).  Admission is atomic: a :class:`BackPressureError` or
        duplicate-name :class:`CampaignError` leaves the ledger
        untouched.
        """
        if weight <= 0:
            raise ExecConfigError(f"tenant weight must be > 0, got {weight}")
        if queue_cap is not None and queue_cap < 1:
            raise ExecConfigError(
                f"queue_cap must be >= 1, got {queue_cap}"
            )
        precommitted = precommitted or set()
        with self._transaction() as state:
            campaigns = state["campaigns"]
            if campaign in campaigns:
                raise CampaignError(
                    f"campaign {campaign!r} already submitted "
                    f"(tenant {campaigns[campaign]['tenant']!r})"
                )
            tenants = state["tenants"]
            record = tenants.setdefault(
                tenant,
                {"weight": 1.0, "queue_cap": None, "dispatched": 0,
                 "submitted": 0},
            )
            record["weight"] = float(weight)
            record["queue_cap"] = queue_cap
            jobs = state["jobs"]
            fresh = [
                (key, cell, job_key)
                for key, cell, job_key in entries
                if key not in jobs and key not in precommitted
            ]
            cap = record["queue_cap"]
            if cap is not None:
                depth = sum(
                    1 for job in jobs.values()
                    if job["tenant"] == tenant
                    and job["state"] in (PENDING, LEASED)
                )
                if depth + len(fresh) > cap:
                    raise BackPressureError(
                        tenant, depth, cap, len(fresh)
                    )
            deduplicated = 0
            pre = 0
            keys: List[str] = []
            for key, cell, job_key in entries:
                keys.append(key)
                existing = jobs.get(key)
                if existing is not None:
                    if campaign not in existing["campaigns"]:
                        existing["campaigns"].append(campaign)
                    deduplicated += 1
                    continue
                state["order"] = int(state["order"]) + 1
                cached = key in precommitted
                pre += int(cached)
                jobs[key] = {
                    "cell": list(cell),
                    "job_key": job_key,
                    "campaigns": [campaign],
                    "tenant": tenant,
                    "state": DONE if cached else PENDING,
                    "host": None,
                    "lease_expires": None,
                    "attempts": 0,
                    "holds": 0,
                    "steals": 0,
                    "order": state["order"],
                    "error": None,
                    "cached": cached,
                }
            record["submitted"] += len(entries)
            campaigns[campaign] = {
                "tenant": tenant,
                "grid": dict(grid or {}),
                "keys": keys,
                "total": len(keys),
            }
            return {
                "campaign": campaign,
                "tenant": tenant,
                "total": len(keys),
                "new": len(keys) - deduplicated - pre,
                "deduplicated": deduplicated,
                "precommitted": pre,
            }

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    @staticmethod
    def _charge(job: Dict[str, Any], error: str) -> bool:
        """Charge one failed attempt: back to pending, or terminally
        failed once the budget is spent (True)."""
        job["attempts"] += 1
        job["host"] = None
        job["lease_expires"] = None
        job["error"] = error
        job["state"] = FAILED if job["attempts"] >= MAX_ATTEMPTS else PENDING
        return job["state"] == FAILED

    @classmethod
    def _expire(cls, state: Dict[str, object], now: float) -> int:
        """Charge expired leases and return them to the pending pool
        (work-stealing's first half; any host's next claim is the
        second)."""
        expired = 0
        for job in state["jobs"].values():
            if (
                job["state"] == LEASED
                and job["lease_expires"] is not None
                and job["lease_expires"] < now
            ):
                cls._charge(job, f"lease expired (host {job['host']})")
                job["steals"] += 1
                expired += 1
        state["counters"]["expired_leases"] += expired
        return expired

    @staticmethod
    def _fair_tenant(state: Dict[str, object]) -> Optional[str]:
        """The tenant owed the next dispatch: smallest virtual time
        (``dispatched / weight``) among tenants with pending work, ties
        broken by name so dispatch order is deterministic."""
        tenants = state["tenants"]
        eligible = set()
        for job in state["jobs"].values():
            if job["state"] == PENDING:
                eligible.add(job["tenant"])
        best: Optional[str] = None
        best_vt = 0.0
        for name in sorted(eligible):
            record = tenants.get(name, {"weight": 1.0, "dispatched": 0})
            vt = record["dispatched"] / max(record["weight"], 1e-9)
            if best is None or vt < best_vt:
                best, best_vt = name, vt
        return best

    def claim(
        self, host_id: str, now: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """Lease one job to ``host_id``, or None when nothing is pending.

        Expires stale leases first, so a surviving host's claim *is* the
        steal.  Within the fair-share tenant, jobs dispatch in submit
        order.  The returned claim carries everything a host needs to
        execute without re-reading the ledger: the cell coordinates, the
        content key, the chaos ``job_key``, and ``hold`` — how many
        hosts held this job before (feeds
        :meth:`~repro.exec.resilience.WorkerFaultPlan.verdict_for`).
        """
        now = time.time() if now is None else now
        with self._transaction() as state:
            self._expire(state, now)
            tenant = self._fair_tenant(state)
            if tenant is None:
                return None
            best_key: Optional[str] = None
            best_order = 0
            for key, job in state["jobs"].items():
                if job["state"] != PENDING or job["tenant"] != tenant:
                    continue
                if best_key is None or job["order"] < best_order:
                    best_key, best_order = key, job["order"]
            assert best_key is not None  # tenant came from a pending job
            job = state["jobs"][best_key]
            ttl = state["config"]["lease_ttl"]
            job["state"] = LEASED
            job["host"] = host_id
            job["lease_expires"] = now + ttl
            hold = job["holds"]
            job["holds"] += 1
            state["tenants"][tenant]["dispatched"] += 1
            state["counters"]["claims"] += 1
            return {
                "key": best_key,
                "cell": list(job["cell"]),
                "job_key": job["job_key"],
                "hold": hold,
                "attempts": job["attempts"],
                "tenant": tenant,
                "lease_expires": job["lease_expires"],
            }

    def renew(self, host_id: str, now: Optional[float] = None) -> int:
        """Heartbeat: extend every lease ``host_id`` still holds."""
        now = time.time() if now is None else now
        with self._transaction() as state:
            ttl = state["config"]["lease_ttl"]
            renewed = 0
            for job in state["jobs"].values():
                if job["state"] == LEASED and job["host"] == host_id:
                    job["lease_expires"] = now + ttl
                    renewed += 1
            return renewed

    def release(self, host_id: str) -> int:
        """Graceful shutdown: hand unfinished leases straight back."""
        with self._transaction() as state:
            released = 0
            for job in state["jobs"].values():
                if job["state"] == LEASED and job["host"] == host_id:
                    job["state"] = PENDING
                    job["host"] = None
                    job["lease_expires"] = None
                    released += 1
            return released

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def commit(self, key: str, host_id: str) -> bool:
        """Mark ``key`` done; False when someone already did (dedup).

        First-writer-wins on the content address turns at-least-once
        execution into effectively exactly-once results: a stalled
        host's late commit of work that was stolen and finished
        elsewhere is dropped here, after the (byte-identical, atomic)
        cache store but before any double accounting.
        """
        with self._transaction() as state:
            job = state["jobs"].get(key)
            if job is None:
                raise ServiceError(f"commit of unknown job key {key}")
            if job["state"] == DONE:
                state["counters"]["dedup_commits"] += 1
                return False
            job["state"] = DONE
            job["host"] = host_id
            job["lease_expires"] = None
            job["error"] = None
            return True

    def fail(self, key: str, host_id: str, error: str) -> bool:
        """Charge one failed attempt; True when terminally failed."""
        with self._transaction() as state:
            job = state["jobs"].get(key)
            if job is None:
                raise ServiceError(f"failure report for unknown job {key}")
            if job["state"] == DONE:
                return False  # someone else already finished it
            return self._charge(job, error)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def outstanding(self) -> int:
        """Jobs still pending or leased (the hosts' drain condition)."""
        state = self._read()
        return sum(
            1 for job in state["jobs"].values()
            if job["state"] in (PENDING, LEASED)
        )

    def progress(
        self, campaign: Optional[str] = None
    ) -> Dict[str, object]:
        """State counts — service-wide, or scoped to one campaign."""
        state = self._read()
        jobs = state["jobs"]
        if campaign is not None:
            record = state["campaigns"].get(campaign)
            if record is None:
                raise CampaignError(f"unknown campaign {campaign!r}")
            jobs = {key: jobs[key] for key in record["keys"]}
        counts = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        steals = 0
        for job in jobs.values():
            counts[job["state"]] += 1
            steals += job["steals"]
        return {
            "total": len(jobs),
            "pending": counts[PENDING],
            "leased": counts[LEASED],
            "done": counts[DONE],
            "failed": counts[FAILED],
            "steals": steals,
        }

    def campaign(self, name: str) -> Dict[str, object]:
        """The campaign record (tenant, grid, keys, total)."""
        state = self._read()
        record = state["campaigns"].get(name)
        if record is None:
            raise CampaignError(f"unknown campaign {name!r}")
        return record

    def snapshot(self) -> Dict[str, object]:
        """The full ledger document (status/reporting; read-only)."""
        return self._read()


__all__ = [
    "DEFAULT_LEASE_TTL",
    "DONE",
    "FAILED",
    "JobLedger",
    "LEASED",
    "PENDING",
]
