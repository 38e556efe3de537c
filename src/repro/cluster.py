"""Supervised sharded engine: shared-memory shards, heartbeats, failover.

:class:`ShardedEngine` partitions an engine's summarised
:class:`~repro.uncertain.columns.ModelColumns` into contiguous row
ranges, exports each range into one ``multiprocessing.shared_memory``
segment, and spawns a long-lived worker process per shard that attaches
the segment zero-copy and answers per-shard query requests.  The
supervisor merges per-shard answers deterministically so every result
is **bit-identical** to the single-process :class:`repro.Engine`:

* ``expected_nn`` — each shard reports its (winner, value); folding the
  shards in ascending order with a strict ``<`` reproduces the dense
  argmin's lowest-index tie-break, because shards are contiguous
  ascending index ranges.
* ``expected_knn`` — each shard reports its top ``min(k, n_shard)``
  (value, global index) pairs; re-sorting the union lexicographically
  by ``(value, index)`` and keeping the first ``k`` equals the stable
  argsort of the full expectation matrix.
* ``nonzero`` — each shard reports its two smallest ``dmax`` values
  (argmin index attached) plus its local Lemma 2.1 member sets with
  their ``dmin``; the merged global thresholds filter the local sets
  down to exactly the global sets (see
  :func:`repro.core.nonzero.support_report` for the argument).

Each shardable method's shard report and merge sit on its record in
:data:`repro.methods.METHODS`; a method without them runs locally.

Globally coupled methods (``threshold``, ``mc_pnn`` — their
probabilities condition on *all* other objects), the whole-dataset
``approx`` tier, subset queries, and deadline queries execute on the
supervisor's local engine instead (counted in
``stats()["cluster"]["local_queries"]``); sharding them bit-identically
would require replaying the exact global float/RNG sequence across
processes, which their semantics do not decompose into.

Robustness semantics
--------------------
Workers stamp a shared heartbeat slot while idle; the supervisor
respawns workers that died or whose heartbeat went stale past the
liveness timeout.  A respawn re-attaches the shared-memory segment by
name and, when the segment is gone, falls back to the shard's PR 7
snapshot (written at construction).  Failed requests are retried under
a deterministic :class:`repro.resilience.retry.RetryPolicy` (seeded
jitter, capped attempts, per-site counters in
``stats()["cluster"]["retries"]``); respawned workers run with fault
injection suppressed — the transient-fault model of the PR 7 recovery
paths.  A shard that stays dead past the retry budget degrades the
batch honestly: the merged result covers the surviving shards, every
row is flagged in the ``degraded`` mask, and the plan records the dead
shards — never a hang, never a silently wrong answer.

Fault sites: ``cluster.heartbeat`` fires in the worker idle loop (a
``slow`` spec simulates a hang, ``kill`` an idle death) and
``cluster.shard_query`` fires per request (``crash`` → an error reply
the supervisor retries; ``kill`` → death mid-query, exercising
respawn-and-resend failover).
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import queue as _queue
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import io as _io
from .config import CLUSTER as _CLUSTER
from .core import parallel as _parallel
from .core.planner import QueryPlanner
from .engine import Engine, QueryResult, QuerySpec, resolve_spec
from .errors import QueryError, ResourceLimitError
from .geometry.kernels import as_query_array
from .methods import METHODS
from .resilience import admission as _admission
from .resilience import faults as _faults
from .resilience import snapshot as _snapshot
from .resilience.retry import RetryCounters, RetryPolicy
from .uncertain.columns import ModelColumns

__all__ = ["ShardedEngine", "shard_bounds"]

HEARTBEAT_SITE = "cluster.heartbeat"
SHARD_QUERY_SITE = "cluster.shard_query"


def shard_bounds(n: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ascending ``[lo, hi)`` ranges splitting ``n`` rows as
    evenly as possible.  Ascending contiguity is what makes the merge
    tie-breaks reproduce the single-process lowest-index convention."""
    if shards < 1 or shards > n:
        raise QueryError(f"shard count must lie in [1, {n}], got {shards}")
    return [
        ((i * n) // shards, ((i + 1) * n) // shards) for i in range(shards)
    ]


# -- worker side --------------------------------------------------------------


def _load_shard_state(points_blob, shm_name, layout, snapshot_path):
    """Resolve the shard's (points, columns, shm) with the documented
    fallback chain: shared memory → snapshot → re-summarise."""
    points = _io.loads(points_blob)
    shm = None
    cols = None
    if shm_name is not None:
        try:
            cols, shm = ModelColumns.from_shared_memory(shm_name, layout)
        except FileNotFoundError:
            cols = None
    if cols is None and snapshot_path is not None:
        try:
            restored = _snapshot.load_engine(snapshot_path)
            points = restored.points
            cols = restored.columns()
        except Exception:
            cols = None
    if cols is None:
        cols = ModelColumns(points)
    return points, cols, shm


def _answer_request(planner, lo, payload):
    """One per-shard report (the method's ``report`` in
    :data:`repro.methods.METHODS`), with every reported index rebased
    to the global numbering (``local + lo``)."""
    return METHODS[payload["method"]].report(
        planner, payload["Q"], payload["tier"], payload["k"], lo
    )


def _shard_worker_main(
    shard_id: int,
    lo: int,
    points_blob: str,
    shm_name: Optional[str],
    layout,
    snapshot_path: Optional[str],
    request_q,
    response_q,
    heartbeat,
    hb_interval: float,
    suppress_faults: bool,
):
    """Long-lived shard worker: attach state, then serve the request
    queue, stamping the heartbeat slot whenever idle.

    Respawned workers run with ``suppress_faults=True``: the fault plan
    inherited through the environment models *transient* faults, and a
    recovery replay must not re-fire them (the same contract as
    ``map_tiles``' serial retry).
    """
    ctx = _faults.suppressed() if suppress_faults else contextlib.nullcontext()
    with ctx:
        points, cols, shm = _load_shard_state(
            points_blob, shm_name, layout, snapshot_path
        )
        try:
            planner = QueryPlanner(points, columns=cols)
            heartbeat.value = time.monotonic()
            while True:
                try:
                    msg = request_q.get(timeout=hb_interval)
                except _queue.Empty:
                    heartbeat.value = time.monotonic()
                    try:
                        _faults.fire(HEARTBEAT_SITE, shard_id)
                    except BaseException:
                        # An injected heartbeat crash models an idle
                        # worker dying between requests.
                        os._exit(13)
                    continue
                if msg[0] == "stop":
                    break
                _, req_id, payload = msg
                heartbeat.value = time.monotonic()
                try:
                    # An injected "kill" here never returns — the
                    # supervisor sees the dead process and fails over.
                    _faults.fire(SHARD_QUERY_SITE, shard_id)
                    result = _answer_request(planner, lo, payload)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    response_q.put(
                        (req_id, "error", f"{type(exc).__name__}: {exc}")
                    )
                else:
                    response_q.put((req_id, "ok", result))
                heartbeat.value = time.monotonic()
        finally:
            if shm is not None:
                shm.close()


# -- supervisor side ----------------------------------------------------------


class _ShardRequestError(Exception):
    """Internal: one shard request attempt failed (error reply, death,
    or timeout).  Never escapes :class:`ShardedEngine`."""


@dataclasses.dataclass
class _Shard:
    sid: int
    lo: int
    hi: int
    points_blob: str
    shm: object = None
    layout: Optional[list] = None
    snapshot_path: Optional[str] = None
    process: object = None
    request_q: object = None
    response_q: object = None
    heartbeat: object = None
    respawns: int = 0
    dead: bool = False

    @property
    def n(self) -> int:
        return self.hi - self.lo


def _segment_bytes(cols: ModelColumns) -> int:
    """Exact size of the segment :meth:`ModelColumns.to_shared_memory`
    would create (64-byte aligned field offsets)."""
    offset = 0
    for field in ModelColumns.ARRAY_FIELDS:
        arr = getattr(cols, field)
        offset = (offset + 63) & ~63
        offset += arr.nbytes
    return max(offset, 1)


class ShardedEngine:
    """A supervised cluster of shard workers answering
    :class:`repro.Engine` queries bit-identically.

    Construction partitions the summarised columns into ``shards``
    contiguous ranges, admission-checks the topology (shard count
    against ``EXECUTION.max_workers`` — strict, not clamped — and the
    total shared-memory bytes against ``memory_budget_bytes``), exports
    each range to shared memory, optionally writes one snapshot per
    shard as the segment-loss fallback, and spawns the workers.

    The dataset is immutable for the cluster's lifetime (no
    insert/remove — partition-stable sharding is what makes the merges
    deterministic); use :class:`repro.Engine` for mutable sessions.
    Always ``close()`` (or use as a context manager): it stops workers,
    unlinks segments, and removes the snapshot directory.
    """

    def __init__(
        self,
        points: Sequence,
        shards: Optional[int] = None,
        *,
        heartbeat_interval_s: Optional[float] = None,
        liveness_timeout_s: Optional[float] = None,
        shard_timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        snapshot_fallback: Optional[bool] = None,
        start_method: str = "spawn",
    ):
        self._local = Engine(points)
        n = len(self._local)
        self._hb_interval = float(
            heartbeat_interval_s
            if heartbeat_interval_s is not None
            else _CLUSTER.heartbeat_interval_s
        )
        self._liveness_timeout = float(
            liveness_timeout_s
            if liveness_timeout_s is not None
            else _CLUSTER.liveness_timeout_s
        )
        self._shard_timeout = float(
            shard_timeout_s
            if shard_timeout_s is not None
            else _CLUSTER.shard_timeout_s
        )
        self._retry = retry if retry is not None else RetryPolicy.from_config()
        self._retry_counters = RetryCounters()
        self._snapshot_fallback = bool(
            snapshot_fallback
            if snapshot_fallback is not None
            else _CLUSTER.snapshot_fallback
        )
        self._ctx = multiprocessing.get_context(start_method)
        self._req_counter = 0
        self._counters = {
            "sharded_queries": 0,
            "local_queries": 0,
            "local_fallback_queries": 0,
            "respawns": 0,
            "liveness_timeouts": 0,
            "snapshot_dir": None,
        }
        self._shards: List[_Shard] = []
        self._snapshot_dir: Optional[str] = None
        self._closed = False
        if n == 0:
            return
        requested = int(shards) if shards is not None else _CLUSTER.shards
        if requested < 1:
            raise QueryError(
                f"shard count must be a positive integer, got {requested!r}")
        # Strict admission: an explicit topology above the operator's
        # max_workers cap is rejected, never silently reshaped.
        requested = _parallel.resolve_workers(
            requested, strict=True, what="cluster shard topology"
        )
        requested = min(requested, n)
        cols = self._local.columns()
        bounds = shard_bounds(n, requested)
        slices = [cols.row_slice(lo, hi) for lo, hi in bounds]
        total_shm = sum(_segment_bytes(s) for s in slices)
        _admission.require_bytes(
            total_shm,
            f"cluster shared-memory shards ({requested} segments over "
            f"n={n} objects)",
        )
        points_list = self._local.points
        try:
            if self._snapshot_fallback:
                self._snapshot_dir = tempfile.mkdtemp(prefix="repro-cluster-")
                self._counters["snapshot_dir"] = self._snapshot_dir
            for sid, ((lo, hi), shard_cols) in enumerate(
                zip(bounds, slices)
            ):
                shard_points = points_list[lo:hi]
                shard = _Shard(
                    sid=sid, lo=lo, hi=hi,
                    points_blob=_io.dumps(shard_points),
                )
                shard.shm, shard.layout = shard_cols.to_shared_memory()
                if self._snapshot_dir is not None:
                    shard.snapshot_path = os.path.join(
                        self._snapshot_dir, f"shard-{sid}.npz"
                    )
                    shard_engine = Engine(shard_points)
                    shard_engine.registry.put(
                        ("columns",), shard_engine.generation, shard_cols
                    )
                    _snapshot.save_engine(shard_engine, shard.snapshot_path)
                self._shards.append(shard)
            for shard in self._shards:
                self._spawn(shard, suppress_faults=False)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------
    def _spawn(self, shard: _Shard, suppress_faults: bool) -> None:
        shard.request_q = self._ctx.Queue()
        shard.response_q = self._ctx.Queue()
        shard.heartbeat = self._ctx.Value("d", time.monotonic())
        shard.process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                shard.sid,
                shard.lo,
                shard.points_blob,
                shard.shm.name if shard.shm is not None else None,
                shard.layout,
                shard.snapshot_path,
                shard.request_q,
                shard.response_q,
                shard.heartbeat,
                self._hb_interval,
                suppress_faults,
            ),
            daemon=True,
        )
        shard.process.start()

    def _terminate(self, shard: _Shard) -> None:
        proc = shard.process
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)

    def _respawn(self, shard: _Shard) -> None:
        """Kill-and-replace one worker.  The replacement re-attaches the
        shared-memory segment by name; if the segment is gone it
        restores from the shard snapshot (see
        :func:`_load_shard_state`), and it always runs fault-suppressed
        — the transient-fault recovery contract."""
        self._terminate(shard)
        shard.respawns += 1
        self._counters["respawns"] += 1
        self._spawn(shard, suppress_faults=True)

    def drain_shard(self, sid: int) -> None:
        """Operator drain: stop shard ``sid`` and mark it dead (no
        respawn).  Subsequent sharded queries degrade honestly — the
        path a shard takes organically when its retry budget runs out."""
        shard = self._shards[sid]
        self._terminate(shard)
        shard.dead = True

    def close(self) -> None:
        """Stop every worker, release shared memory, remove snapshots."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            proc = shard.process
            if proc is not None and proc.is_alive():
                try:
                    shard.request_q.put(("stop",))
                    proc.join(timeout=1.0)
                except Exception:
                    pass
            self._terminate(shard)
            if shard.shm is not None:
                try:
                    shard.shm.close()
                    shard.shm.unlink()
                except FileNotFoundError:
                    pass
                except Exception:
                    pass
                shard.shm = None
        if self._snapshot_dir is not None:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
            self._snapshot_dir = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._local)

    @property
    def engine(self) -> Engine:
        """The supervisor-local single-process engine (fallback and
        globally-coupled-method executor)."""
        return self._local

    @property
    def shards(self) -> int:
        return len(self._shards)

    def shard_map(self) -> List[Dict[str, object]]:
        """Per-shard topology and health: bounds, pid, respawn count,
        liveness."""
        out = []
        now = time.monotonic()
        for s in self._shards:
            alive = s.process is not None and s.process.is_alive()
            out.append({
                "sid": s.sid,
                "rows": [s.lo, s.hi],
                "pid": s.process.pid if s.process is not None else None,
                "alive": alive and not s.dead,
                "dead": s.dead,
                "respawns": s.respawns,
                "heartbeat_age_s": (
                    now - s.heartbeat.value
                    if s.heartbeat is not None else None
                ),
                "shm_bytes": (
                    s.shm.size if s.shm is not None else 0
                ),
            })
        return out

    def stats(self) -> Dict[str, object]:
        """The local engine's stats plus the ``"cluster"`` section:
        topology, respawn/liveness counters, per-site retry counters,
        and the sharded/local dispatch split."""
        stats = self._local.stats()
        stats["cluster"] = {
            **{k: v for k, v in self._counters.items()},
            "shards": len(self._shards),
            "shard_map": self.shard_map(),
            "retries": self._retry_counters.as_dict(),
            "dead_shards": [s.sid for s in self._shards if s.dead],
            "shm_bytes": sum(
                s.shm.size for s in self._shards if s.shm is not None
            ),
        }
        # Same JSON-serializability contract as Engine.stats(): the
        # cluster section adds topology rows whose counters may be
        # NumPy scalars.
        return _io.json_safe(stats)

    # -- supervision ----------------------------------------------------------
    def supervise(self) -> None:
        """One liveness sweep: respawn every non-drained worker that is
        dead or idle-stale past the liveness timeout.  Runs implicitly
        before every sharded dispatch."""
        now = time.monotonic()
        for shard in self._shards:
            if shard.dead:
                continue
            proc = shard.process
            if proc is None or not proc.is_alive():
                self._respawn(shard)
            elif now - shard.heartbeat.value > self._liveness_timeout:
                self._counters["liveness_timeouts"] += 1
                self._respawn(shard)

    # -- dispatch -------------------------------------------------------------
    def _sharded(self, spec: QuerySpec) -> bool:
        return (
            bool(self._shards)
            and METHODS[spec.method].report is not None
            and spec.tier in ("exact", "pruned")
            and spec.subset is None
            and spec.deadline_s is None
            and not spec.diagnostics
        )

    def query(self, qs, spec: Optional[QuerySpec] = None, **spec_kwargs):
        """Execute one query batch — same surface as
        :meth:`repro.Engine.query`, same answers bit for bit.

        Shardable specs (see module docstring) scatter to the workers
        and merge; everything else runs on the local engine.
        """
        spec = resolve_spec(spec, spec_kwargs)
        if not self._sharded(spec):
            self._counters["local_queries"] += 1
            return self._local.query(qs, spec)
        self._counters["sharded_queries"] += 1
        t0 = time.perf_counter()
        Q = as_query_array(qs)
        METHODS[spec.method].check(spec, len(self._local))
        self.supervise()
        payload = {
            "method": spec.method,
            "tier": spec.tier,
            "k": spec.k,
            "Q": Q,
        }
        # Scatter first so every worker computes its shard concurrently;
        # the gather below then awaits (and retries) shard by shard.
        pending = [self._scatter(shard, payload) for shard in self._shards]
        parts: List[Optional[dict]] = [
            self._shard_query(shard, payload, sent_req=req)
            for shard, req in zip(self._shards, pending)
        ]
        result = self._merge(spec, Q, parts)
        result.elapsed = time.perf_counter() - t0
        return result

    def _next_req(self) -> int:
        self._req_counter += 1
        return self._req_counter

    def _scatter(self, shard: _Shard, payload: dict) -> Optional[int]:
        """Enqueue one shard's request without waiting for the reply.
        Returns the request id, or ``None`` when the shard is dead or
        the send failed (the gather's first attempt then resends)."""
        if shard.dead:
            return None
        try:
            if shard.process is None or not shard.process.is_alive():
                self._respawn(shard)
            req_id = self._next_req()
            shard.request_q.put(("query", req_id, payload))
            return req_id
        except Exception:
            return None

    def _shard_query(
        self, shard: _Shard, payload: dict, sent_req: Optional[int] = None
    ) -> Optional[dict]:
        """One shard's answer under the retry policy, or ``None`` when
        the shard is (or becomes) dead past the budget."""
        if shard.dead:
            return None
        site = f"shard[{shard.sid}].query"
        last_exc: Optional[BaseException] = None
        for attempt in range(self._retry.attempts):
            self._retry_counters.note_attempt(site)
            try:
                if attempt == 0 and sent_req is not None:
                    req_id = sent_req
                else:
                    if (
                        shard.process is None
                        or not shard.process.is_alive()
                    ):
                        self._respawn(shard)
                    req_id = self._next_req()
                    shard.request_q.put(("query", req_id, payload))
                return self._await_response(shard, req_id)
            except _ShardRequestError as exc:
                last_exc = exc
                if attempt + 1 < self._retry.attempts:
                    self._retry_counters.note_retry(site)
                    if (
                        shard.process is None
                        or not shard.process.is_alive()
                    ):
                        self._respawn(shard)
                    time.sleep(self._retry.delay_s(site, attempt))
        self._retry_counters.note_exhausted(site)
        shard.dead = True
        del last_exc
        return None

    def _await_response(self, shard: _Shard, req_id: int) -> dict:
        deadline = time.monotonic() + self._shard_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _ShardRequestError(
                    f"shard {shard.sid} timed out after "
                    f"{self._shard_timeout}s")
            try:
                msg = shard.response_q.get(timeout=min(0.05, remaining))
            except _queue.Empty:
                if shard.process is None or not shard.process.is_alive():
                    # One final drain: the reply may have been queued in
                    # the instant before death.
                    try:
                        msg = shard.response_q.get_nowait()
                    except _queue.Empty:
                        raise _ShardRequestError(
                            f"shard {shard.sid} worker died mid-request"
                        ) from None
                else:
                    continue
            rid, status, result = msg
            if rid != req_id:
                continue  # stale reply from a timed-out earlier attempt
            if status == "ok":
                return result
            raise _ShardRequestError(
                f"shard {shard.sid} replied with an error: {result}")

    # -- deterministic merges --------------------------------------------------
    def _merge(
        self,
        spec: QuerySpec,
        Q: np.ndarray,
        parts: List[Optional[dict]],
    ) -> QueryResult:
        m = Q.shape[0]
        n = len(self._local)
        live = [p for p in parts if p is not None]
        dead = [s.sid for s, p in zip(self._shards, parts) if p is None]
        base = dict(
            spec=spec, m=m, n=n, generation=self._local.generation
        )
        if not live:
            # Every shard is gone; the supervisor still holds the full
            # relation, so answer exactly rather than returning nothing.
            self._counters["local_fallback_queries"] += 1
            result = self._local.query(Q, spec)
            result.plan["cluster"] = {
                "dead_shards": dead, "local_fallback": True,
            }
            return result
        route = f"cluster/{spec.method}/{spec.tier}"
        plan: Dict[str, object] = {
            "route": route,
            "indexes": ["cluster"],
            "shards": len(self._shards),
            "shard_rows": [[s.lo, s.hi] for s in self._shards],
        }
        result = QueryResult(
            **METHODS[spec.method].merge(live, spec, n), plan=plan, **base
        )
        if dead:
            # Honest degradation: the answers cover only the surviving
            # shards' objects, so every row is flagged and the plan
            # names the missing shards (with their row ranges).
            result.degraded = np.ones(m, dtype=bool)
            plan["route"] = f"{route}+degraded[{m}]"
            plan["degraded_rows"] = m
            plan["dead_shards"] = dead
            plan["missing_rows"] = [
                [self._shards[sid].lo, self._shards[sid].hi] for sid in dead
            ]
        return result
