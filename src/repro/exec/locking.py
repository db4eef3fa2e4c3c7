"""Cross-process file locking and atomic JSON persistence.

The multi-host service layer (:mod:`repro.exec.ledger`,
:mod:`repro.exec.service`) coordinates through plain files on a
filesystem every host can reach.  Two primitives make that safe:

:func:`file_lock`
    An advisory ``fcntl`` exclusive lock on a sidecar ``.lock`` file.
    The lock file is opened (created if missing) and ``flock``-ed for
    the duration of the ``with`` block; locking a *sidecar* rather than
    the data file means the data file itself can be atomically replaced
    (``os.replace``) while the lock is held without stranding waiters on
    a dead inode.  On platforms without ``fcntl`` (non-POSIX) the lock
    degrades to a no-op — single-host behaviour is unchanged, and the
    multi-host service documents its POSIX requirement.

:func:`atomic_write_json`
    Durable atomic replacement: serialise to a temp file in the target
    directory, flush + fsync, then ``os.replace``.  Readers never see a
    torn document, and a crash between fsync and replace leaves only a
    stray temp file.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: True when real cross-process locking is available on this platform.
HAVE_FCNTL = fcntl is not None


@contextmanager
def file_lock(lock_path: str) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``lock_path`` for the block.

    Blocks until the lock is granted.  Reentrant use from the same
    process on the same handle is *not* supported — callers keep their
    critical sections flat, one locked read-modify-write per operation.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    directory = os.path.dirname(os.path.abspath(lock_path))
    os.makedirs(directory, exist_ok=True)
    with open(lock_path, "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def atomic_write_json(path: str, payload: Dict[str, object]) -> None:
    """Durably replace ``path`` with ``payload`` serialised as JSON."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path), suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_json(path: str) -> Optional[Dict[str, object]]:
    """Parse a JSON document, or None when the file does not exist."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


__all__ = ["HAVE_FCNTL", "atomic_write_json", "file_lock", "read_json"]
