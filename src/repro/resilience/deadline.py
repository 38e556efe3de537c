"""Cooperative deadlines for query execution.

A deadline is a wall-clock budget attached to a scope.  Execution loops
across the stack (tiled bound pass, dual-tree levels, evaluator chunks,
Monte-Carlo rounds) call :func:`check_deadline` at natural unit
boundaries; when the budget is exhausted the check raises
:class:`repro.errors.QueryTimeoutError` carrying the site that noticed,
the elapsed time, and a per-site progress map — the partial diagnostics
of the aborted run.

The active deadline is a :mod:`contextvars` variable: each thread sees
only the scopes it opened, and the pool tiles it fans out
(:mod:`repro.core.parallel`) run in a copy of its context, so they
charge the same deadline.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from typing import Dict, Iterator, Optional

from ..errors import QueryError, QueryTimeoutError

__all__ = ["Deadline", "deadline_scope", "active_deadline", "check_deadline"]


class Deadline:
    """A running wall-clock budget plus per-site progress counters.

    Every pool tile of a query ticks the same deadline, so the counters
    are updated under a lock."""

    __slots__ = ("deadline_s", "started_at", "expires_at", "progress", "_lock")

    def __init__(self, deadline_s: float):
        if not (float(deadline_s) > 0.0):
            raise QueryError(f"deadline_s must be > 0, got {deadline_s!r}")
        self.deadline_s = float(deadline_s)
        self.started_at = time.monotonic()
        self.expires_at = self.started_at + self.deadline_s
        self.progress: Dict[str, int] = {}
        self._lock = threading.Lock()

    def elapsed(self) -> float:
        return time.monotonic() - self.started_at

    def remaining(self) -> float:
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def tick(self, site: str) -> None:
        """Record one completed unit at ``site`` and raise if expired."""
        with self._lock:
            self.progress[site] = self.progress.get(site, 0) + 1
        if self.expired():
            elapsed = self.elapsed()
            with self._lock:
                progress = dict(self.progress)
            raise QueryTimeoutError(
                f"deadline of {self.deadline_s:.6g}s expired after "
                f"{elapsed:.6g}s at checkpoint {site!r}",
                site=site,
                deadline_s=self.deadline_s,
                elapsed_s=elapsed,
                progress=progress,
            )


#: The innermost deadline scope of the calling context.
_ACTIVE: contextvars.ContextVar[Optional[Deadline]] = contextvars.ContextVar(
    "deadline", default=None
)


def active_deadline() -> Optional[Deadline]:
    """The innermost active deadline, or ``None``."""
    return _ACTIVE.get()


@contextlib.contextmanager
def deadline_scope(deadline_s: Optional[float]) -> Iterator[Optional[Deadline]]:
    """Run the enclosed block under a cooperative deadline.

    ``None`` yields a no-op scope so callers can use one code path for
    bounded and unbounded execution.
    """
    if deadline_s is None:
        yield None
        return
    dl = Deadline(deadline_s)
    token = _ACTIVE.set(dl)
    try:
        yield dl
    finally:
        _ACTIVE.reset(token)


def check_deadline(site: str) -> None:
    """Checkpoint: count one unit of progress at ``site`` against the
    active deadline (no-op when no deadline is active)."""
    dl = _ACTIVE.get()
    if dl is not None:
        dl.tick(site)
