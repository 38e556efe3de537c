"""Resilient execution layer: deadlines, admission control, snapshots,
and deterministic fault injection.

The execution loops across the stack call :func:`checkpoint` at their
natural unit boundaries (one tile, one traversal level, one evaluator
chunk, one Monte-Carlo round).  A checkpoint does two things, both
no-ops in the happy path:

* fire any deterministically injected fault registered for its site
  (:mod:`repro.resilience.faults`);
* charge one unit of progress against the active cooperative deadline
  (:mod:`repro.resilience.deadline`), raising
  :class:`repro.errors.QueryTimeoutError` when the budget is spent.

:mod:`repro.resilience.admission` implements the memory-budget
estimator behind ``EXECUTION.memory_budget_bytes``;
:mod:`repro.resilience.snapshot` implements ``Engine.save`` /
``Engine.load``.
"""

from __future__ import annotations

from typing import Optional

from . import admission, deadline, faults, retry, snapshot, wal
from .admission import clamp_tile_rows, require_bytes
from .deadline import Deadline, active_deadline, check_deadline, deadline_scope
from .faults import FaultSpec, FaultStats, fault_stats, inject, reset_fault_stats
from .retry import RetryCounters, RetryPolicy, run_with_retry
from .snapshot import load_engine, read_manifest, save_engine
from .wal import WalRecord, WriteAheadLog

__all__ = [
    "admission",
    "deadline",
    "faults",
    "retry",
    "snapshot",
    "checkpoint",
    "clamp_tile_rows",
    "require_bytes",
    "Deadline",
    "active_deadline",
    "check_deadline",
    "deadline_scope",
    "FaultSpec",
    "FaultStats",
    "fault_stats",
    "inject",
    "reset_fault_stats",
    "RetryCounters",
    "RetryPolicy",
    "run_with_retry",
    "load_engine",
    "read_manifest",
    "save_engine",
    "wal",
    "WalRecord",
    "WriteAheadLog",
]


def checkpoint(site: str, index: Optional[int] = None) -> None:
    """One cooperative resilience checkpoint: fire injected faults for
    ``site``/``index``, then charge the active deadline.  Costs a
    truthiness test and a context-variable read when neither harness
    is active."""
    faults.fire(site, index)
    check_deadline(site)
