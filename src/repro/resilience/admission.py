"""Memory-budget admission control.

When ``EXECUTION.memory_budget_bytes`` is set, two mechanisms keep a
request inside the budget:

* :func:`clamp_tile_rows` — tile-sized *working sets* (the planner's
  bound pass, evaluator chunks, Monte-Carlo round blocks) are auto-tiled
  down so one tile fits the budget.  Only when even a single row over
  the current data set would not fit is the request rejected.
* :func:`require_bytes` — unavoidable *dense outputs* (distance
  matrices, Monte-Carlo count matrices, sample blocks) cannot be tiled
  away, so the estimated allocation is checked up front and the request
  rejected with :class:`repro.errors.ResourceLimitError` — a structured
  refusal instead of an OOM kill mid-query.

Estimates use the same rows x objects x bytes-per-pair arithmetic as the
``tile_bytes`` tiling math, so both knobs speak the same units.
"""

from __future__ import annotations

from typing import Optional

from ..config import current_execution
from ..errors import ResourceLimitError
from . import faults as _faults

__all__ = ["budget_bytes", "require_bytes", "clamp_tile_rows"]


def budget_bytes() -> Optional[int]:
    """The active admission budget, or ``None`` when unlimited."""
    budget = current_execution().memory_budget_bytes
    return None if budget is None else int(budget)


def require_bytes(nbytes: int, what: str) -> None:
    """Admit or reject an unavoidable allocation of ``nbytes``.

    Raises :class:`ResourceLimitError` when a budget is configured and
    the estimate exceeds it; otherwise a no-op.
    """
    budget = budget_bytes()
    if budget is None:
        return
    _faults.fire("admission")
    nbytes = int(nbytes)
    if nbytes > budget:
        raise ResourceLimitError(
            f"request needs an estimated {nbytes} bytes for {what}, over "
            f"the configured memory budget of {budget} bytes "
            f"(EXECUTION.memory_budget_bytes); shrink the batch or raise "
            f"the budget",
            required_bytes=nbytes, budget_bytes=budget, what=what)


def clamp_tile_rows(rows: int, n: int, bytes_per_pair: int,
                    what: str = "bound-pass tile") -> int:
    """Auto-tile a per-tile row count down to the admission budget.

    ``rows`` is the tile height the ``tile_bytes`` math chose; the
    working set of one tile is roughly ``rows * n * bytes_per_pair``.
    Returns a possibly smaller row count whose tile fits the budget, or
    raises :class:`ResourceLimitError` when even one row does not fit.
    """
    budget = budget_bytes()
    if budget is None or n <= 0:
        return rows
    _faults.fire("admission")
    per_row = max(int(n) * int(bytes_per_pair), 1)
    max_rows = budget // per_row
    if max_rows < 1:
        raise ResourceLimitError(
            f"a single query row over n={n} objects needs an estimated "
            f"{per_row} working bytes for the {what}, over the configured "
            f"memory budget of {budget} bytes "
            f"(EXECUTION.memory_budget_bytes)",
            required_bytes=per_row, budget_bytes=budget, what=what)
    return max(1, min(int(rows), int(max_rows)))
