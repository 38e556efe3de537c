"""Bounded, admission-controlled request queue with batch coalescing.

The daemon's hot path is millions of *small* queries — a handful of
rows each — against a few named datasets.  Executed one at a time each
query pays the planner's fixed per-batch overhead (spec compilation,
prune-pass setup, survivor-CSR plumbing) on every call; the vectorized
paths underneath are exactly as fast on 256 rows as on 4.  The queue
exploits that: concurrent requests against the same ``(dataset,
QuerySpec)`` are **coalesced** — their query matrices are concatenated
into one planner batch, executed once, and the result is split back
per request by row range.

Correctness rests on row independence: every coalescible execution
path answers row ``i`` from row ``i``'s floats alone (the dual-tree
prune emits per-row survivor sets provably equal to the flat prune's,
tiled execution is asserted bit-identical to one tile, and seeded
Monte-Carlo blocks depend only on ``(s, seed)``, never on the query
matrix).  Splitting a coalesced batch therefore returns **bit-identical
answers** to running each request serially — asserted by
``tests/test_service_queue.py`` and the coalesced path of
``tests/test_serving_paths.py``.  Specs that break row independence or
determinism are never coalesced and execute solo:

* ``deadline_s`` set — what finishes under a wall clock depends on
  batch shape, and deadline results are uncacheable by design;
* ``adaptive`` Monte-Carlo — early stopping couples rows through the
  shared round counter;
* unseeded Monte-Carlo — two fresh draws cannot be identical;
* ``diagnostics`` — the payload describes the whole executed batch.

Admission control is depth-based: at ``SERVICE.queue_depth`` pending
requests, :meth:`RequestQueue.submit` raises
:class:`repro.errors.QueueFullError` (HTTP 429) instead of queueing
unbounded work; a draining queue raises
:class:`repro.errors.ServiceUnavailableError` (HTTP 503).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import SERVICE as _SERVICE
from ..engine import QueryResult, QuerySpec, _seed_key
from ..errors import (
    QueueFullError,
    ServiceError,
    ServiceUnavailableError,
    UnknownDatasetError,
)
from ..geometry.kernels import as_query_array
from ..methods import METHODS
from .registry import DatasetRegistry

__all__ = ["RequestQueue", "Ticket", "coalescible"]


def coalescible(spec: QuerySpec) -> bool:
    """Whether results under ``spec`` may be computed in a shared batch
    and split per request (see the module docstring for the exclusions)."""
    if spec.deadline_s is not None or spec.diagnostics:
        return False
    if METHODS[spec.method].seeded and (
        spec.adaptive or _seed_key(spec.seed) is None
    ):
        return False
    return True


@dataclasses.dataclass
class Ticket:
    """One submitted request: its inputs, completion event, and outcome."""

    dataset: str
    spec: QuerySpec
    Q: np.ndarray
    #: Coalescing identity — ``None`` marks a solo-only request.
    key: Optional[Tuple[str, QuerySpec]]
    submitted_at: float = dataclasses.field(default_factory=time.monotonic)
    event: threading.Event = dataclasses.field(default_factory=threading.Event)
    result: Optional[QueryResult] = None
    error: Optional[BaseException] = None
    #: How many requests shared this ticket's executed batch (1 = solo).
    batched_with: int = 0

    @property
    def rows(self) -> int:
        return self.Q.shape[0]

    def wait(self, timeout: Optional[float] = None) -> QueryResult:
        """Block until served; raises the execution's error verbatim, or
        :class:`repro.errors.ServiceError` on timeout."""
        if not self.event.wait(timeout):
            raise ServiceError(
                f"request against {self.dataset!r} not served within "
                f"{timeout}s (queue wait + execution)"
            )
        if self.error is not None:
            raise self.error
        return self.result


class RequestQueue:
    """FIFO request queue with admission control and batch coalescing.

    Parameters default to the :data:`repro.config.SERVICE` knobs.
    ``workers`` dispatcher threads drain the queue; each pops the
    oldest request, gathers every other pending request with the same
    ``(dataset, spec)`` key (up to ``max_batch_requests`` requests /
    ``max_batch_rows`` total rows), executes the merged batch under the
    dataset's lock, and splits the result back per ticket.  With
    ``start=False`` the queue accepts submissions but does not execute
    until :meth:`start` — the deterministic mode the coalescing tests
    use to pin exact batch compositions.
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        *,
        max_depth: Optional[int] = None,
        coalesce: Optional[bool] = None,
        max_batch_requests: Optional[int] = None,
        max_batch_rows: Optional[int] = None,
        workers: Optional[int] = None,
        start: bool = True,
    ):
        self.registry = registry
        self.max_depth = int(
            max_depth if max_depth is not None else _SERVICE.queue_depth
        )
        self.coalesce = bool(
            coalesce if coalesce is not None else _SERVICE.coalesce
        )
        self.max_batch_requests = int(
            max_batch_requests
            if max_batch_requests is not None
            else _SERVICE.max_batch_requests
        )
        self.max_batch_rows = int(
            max_batch_rows
            if max_batch_rows is not None
            else _SERVICE.max_batch_rows
        )
        if self.max_depth < 1 or self.max_batch_requests < 1:
            raise ValueError("queue depth and batch caps must be >= 1")
        self._pending: "deque[Ticket]" = deque()
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        self._draining = False
        self._stopped = False
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "batches": 0,
            "coalesced_batches": 0,
            "coalesced_requests": 0,
        }
        #: Observability hooks the server wires to metrics:
        #: ``on_batch(requests, rows)`` per executed batch and
        #: ``on_done(ticket, latency_s, error)`` per served request.
        self.on_batch: Optional[Callable[[int, int], None]] = None
        self.on_done: Optional[
            Callable[[Ticket, float, Optional[BaseException]], None]
        ] = None
        n_workers = int(
            workers if workers is not None else _SERVICE.queue_workers
        )
        self._threads: List[threading.Thread] = [
            threading.Thread(
                target=self._run, name=f"repro-queue-{i}", daemon=True
            )
            for i in range(max(1, n_workers))
        ]
        self._started = False
        if start:
            self.start()

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "RequestQueue":
        if not self._started:
            self._started = True
            for t in self._threads:
                t.start()
        return self

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, serve what is queued, and stop the workers.

        Returns True when the queue emptied within ``timeout`` (None =
        the configured ``SERVICE.drain_timeout_s``); the workers are
        stopped either way, so a hung engine cannot wedge shutdown.
        """
        budget = (
            _SERVICE.drain_timeout_s if timeout is None else float(timeout)
        )
        deadline = time.monotonic() + budget
        with self._lock:
            self._draining = True
            self._cv.notify_all()
            drained = True
            while self._pending or self._in_flight:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._started:
                    drained = bool(not self._pending and not self._in_flight)
                    break
                self._idle.wait(remaining)
            self._stopped = True
            self._cv.notify_all()
        return drained

    def close(self) -> None:
        """Immediate shutdown: reject the backlog and stop the workers."""
        with self._lock:
            self._draining = True
            self._stopped = True
            backlog = list(self._pending)
            self._pending.clear()
            self._cv.notify_all()
        for ticket in backlog:
            ticket.error = ServiceUnavailableError(
                "service shut down before this request was served"
            )
            ticket.event.set()

    # -- submission -----------------------------------------------------------
    def submit(self, dataset: str, spec: QuerySpec, Q) -> Ticket:
        """Admit one request; returns its :class:`Ticket` immediately.

        Validates the query array and the dataset name *before*
        queueing (a malformed request must cost 400, not a worker's
        time), applies depth admission, and wakes a dispatcher.
        """
        arr = as_query_array(Q)
        self.registry.get(dataset)  # UnknownDatasetError before admission
        key = (dataset, spec) if self.coalesce and coalescible(spec) else None
        ticket = Ticket(dataset=dataset, spec=spec, Q=arr, key=key)
        with self._lock:
            if self._draining or self._stopped:
                self.counters["rejected"] += 1
                raise ServiceUnavailableError(
                    "service is draining; not accepting new requests"
                )
            if len(self._pending) >= self.max_depth:
                self.counters["rejected"] += 1
                raise QueueFullError(
                    f"request queue full ({self.max_depth} pending)",
                    depth=len(self._pending),
                    limit=self.max_depth,
                )
            self._pending.append(ticket)
            self.counters["submitted"] += 1
            self._cv.notify()
        return ticket

    def query(
        self,
        dataset: str,
        spec: QuerySpec,
        Q,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Submit and wait: the blocking convenience the HTTP layer and
        benchmarks use (``timeout`` defaults to
        ``SERVICE.request_timeout_s``)."""
        if timeout is None:
            timeout = _SERVICE.request_timeout_s
        return self.submit(dataset, spec, Q).wait(timeout)

    # -- dispatch -------------------------------------------------------------
    def _take_group(self) -> Optional[List[Ticket]]:
        """Pop the oldest ticket plus every coalescible match (caller
        holds the lock)."""
        if not self._pending:
            return None
        head = self._pending.popleft()
        group = [head]
        if head.key is None or not self.coalesce:
            return group
        rows = head.rows
        if len(self._pending) and len(group) < self.max_batch_requests:
            keep: "deque[Ticket]" = deque()
            while self._pending:
                ticket = self._pending.popleft()
                if (
                    len(group) < self.max_batch_requests
                    and ticket.key == head.key
                    and rows + ticket.rows <= self.max_batch_rows
                ):
                    group.append(ticket)
                    rows += ticket.rows
                else:
                    keep.append(ticket)
            self._pending = keep
        return group

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._pending and not self._stopped:
                    self._cv.wait()
                if self._stopped and not self._pending:
                    return
                group = self._take_group()
                if group is None:
                    continue
                self._in_flight += 1
            try:
                self._execute(group)
            finally:
                with self._lock:
                    self._in_flight -= 1
                    self._idle.notify_all()

    def _execute(self, group: List[Ticket]) -> None:
        done_at = None
        try:
            ds = self.registry.get(group[0].dataset)
            if len(group) == 1:
                Q = group[0].Q
            else:
                Q = np.concatenate([t.Q for t in group], axis=0)
            with ds.lock:
                if ds.closed:
                    # The dataset was evicted between lookup and lock
                    # acquisition; its engine has released its workers /
                    # shared memory / WAL and must never serve a query.
                    raise UnknownDatasetError(
                        f"dataset {ds.name!r} was evicted", name=ds.name
                    )
                result = ds.engine.query(Q, group[0].spec)
            done_at = time.monotonic()
            ds.touch(rows=Q.shape[0])
            self._split(group, result)
            error: Optional[BaseException] = None
        except BaseException as exc:
            done_at = time.monotonic()
            error = exc
            for ticket in group:
                ticket.error = exc
        with self._lock:
            self.counters["batches"] += 1
            if error is None:
                self.counters["completed"] += len(group)
            else:
                self.counters["failed"] += len(group)
            if len(group) > 1:
                self.counters["coalesced_batches"] += 1
                self.counters["coalesced_requests"] += len(group)
        if self.on_batch is not None:
            self.on_batch(len(group), sum(t.rows for t in group))
        for ticket in group:
            ticket.batched_with = len(group)
            if self.on_done is not None:
                self.on_done(ticket, done_at - ticket.submitted_at, error)
            ticket.event.set()

    @staticmethod
    def _split(group: List[Ticket], result: QueryResult) -> None:
        """Assign each ticket its row range of the merged result.

        Slices are copies, so one tenant mutating its answers cannot
        corrupt another's.  A solo group passes the result through
        unchanged (the common fast path)."""
        if len(group) == 1:
            group[0].result = result
            return

        def cut(payload, lo: int, hi: int):
            if payload is None:
                return None
            if isinstance(payload, np.ndarray):
                return payload[lo:hi].copy()
            return [
                dict(row) if isinstance(row, dict) else row
                for row in payload[lo:hi]
            ]

        lo = 0
        for ticket in group:
            hi = lo + ticket.rows
            ticket.result = QueryResult(
                spec=ticket.spec,
                answers=cut(result.answers, lo, hi),
                values=cut(result.values, lo, hi),
                fallback=cut(result.fallback, lo, hi),
                certificate=cut(result.certificate, lo, hi),
                degraded=cut(result.degraded, lo, hi),
                m=ticket.rows,
                n=result.n,
                generation=result.generation,
                elapsed=result.elapsed,
                cached=result.cached,
                plan={**result.plan, "coalesced": len(group)},
                diagnostics=dict(result.diagnostics),
            )
            lo = hi
