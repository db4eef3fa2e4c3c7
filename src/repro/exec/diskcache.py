"""Content-addressed on-disk result cache (the sweep executor's L2).

One JSON file per job under the cache root, named by the job's SHA-256
cache key.  An entry is ``{"schema", "version", "job", "result",
"extras"}``: the schema/code version, the job's human-readable identity,
``RunResult.to_dict()``, and the run's extras (every value a harness
reads besides ``to_dict()``), so a revived result equals the live one
and a cache directory is self-describing and can be audited with
``jq``.  Writes are atomic (temp file + ``os.replace``) so concurrent
sweeps sharing a cache directory never observe torn files; corrupt or
stale entries read as misses and are overwritten on the next store.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.exec.jobs import CACHE_SCHEMA, RunJob
from repro.system.result import RunResult


class DiskResultCache:
    """Load/store :class:`RunResult` JSON keyed by job content hash."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.loads = 0
        self.stores = 0

    def path_for(self, job: RunJob) -> Path:
        return self.root / f"{job.cache_key()}.json"

    def has_key(self, key: str) -> bool:
        """Existence check by raw cache key (the service's precommit check)."""
        return (self.root / f"{key}.json").exists()

    def load(self, job: RunJob) -> Optional[RunResult]:
        """The cached result for ``job``, or None (miss/corrupt/stale)."""
        path = self.path_for(job)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if payload.get("schema") != CACHE_SCHEMA:
            return None
        try:
            result = RunResult.from_dict(payload["result"])
            result.extras = payload["extras"]
        except (KeyError, TypeError, ValueError):
            return None
        self.loads += 1
        return result

    def store(self, job: RunJob, result: RunResult) -> Path:
        """Atomically persist ``result`` under ``job``'s content key."""
        from repro import __version__

        payload = {
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "job": job.describe(),
            "result": result.to_dict(),
            "extras": result.extras,
        }
        path = self.path_for(job)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")
                # fsync before the rename: the cache is the sweep's
                # checkpoint and the service commits a ledger entry right
                # after store() returns, so a stored key whose bytes never
                # reached disk would be unservable after a crash.
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
