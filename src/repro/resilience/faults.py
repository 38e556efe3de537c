"""Deterministic fault injection at named execution sites.

Tests (and the CI fault-injection leg) wrap code in
:func:`inject` with one or more :class:`FaultSpec`\\ s; every resilience
checkpoint then calls :func:`fire` with its site name and, where
meaningful, a unit index.  Matching specs trigger their fault:

* ``"crash"`` — raise :class:`repro.errors.WorkerCrashError` (a
  recoverable in-worker failure; ``map_tiles`` retries the tile).
* ``"kill"``  — hard-exit the current process (``os._exit(17)``): a
  shard worker dies mid-request, a durable child dies mid-write.
* ``"slow"``  — sleep ``delay_s`` (used to trip deadlines on demand).
* ``"alloc"`` — raise :class:`repro.errors.ResourceLimitError`,
  simulating an allocation failure.

Injection is deterministic: a spec fires at explicit unit ``indices``
and/or for its first ``times`` matching calls — never randomly.  The
plan is exported through the ``REPRO_FAULT_PLAN`` environment variable,
which the module reads once, at import: spawned shard workers and child
processes started under an :func:`inject` scope (or with the variable
set) load the plan there, while a checkpoint with no plan loaded costs
one truthiness test and never touches the environment.

Recovery paths run under :func:`suppressed` so a retried tile does not
re-fire its fault — the harness models transient faults, which is what
the serial-retry recovery strategy is designed for.  Suppression and the
per-engine counters of :func:`collecting` are :mod:`contextvars`
variables: they hold for the thread that set them and for the pool
tiles it fans out (:mod:`repro.core.parallel`), never for other threads.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import json
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import QueryError, ResourceLimitError, WorkerCrashError

__all__ = ["FaultSpec", "FaultStats", "inject", "fire", "suppressed",
           "active", "fault_stats", "reset_fault_stats", "collecting",
           "KINDS", "SITES"]

KINDS = ("crash", "kill", "slow", "alloc")

#: The checkpoint sites that fire.  :class:`FaultSpec` rejects any
#: other name, so a plan cannot name a site that never fires.
SITES = (
    "parallel.tile",      # one map_tiles / map_ordered work unit
    "dual_tree.level",    # one dual-tree traversal level
    "dual_tree.refine",   # one dual-tree refinement chunk
    "evaluators.chunk",   # one grouped-evaluator pair chunk
    "mc.round",           # one Monte-Carlo round (or round block)
    "engine.chunk",       # one degrade-mode row chunk
    "admission",          # one admission-control estimate
    "snapshot.write",     # one snapshot payload write
    "cluster.heartbeat",  # one shard-worker idle heartbeat
    "cluster.shard_query",  # one per-shard query request
    "wal.append",         # one WAL record append (fires mid-frame)
    "wal.fsync",          # one WAL fsync (after flush, before sync)
    "wal.rotate",         # one WAL compaction rotation step
)

_ENV_KEY = "REPRO_FAULT_PLAN"


@dataclasses.dataclass
class FaultSpec:
    """One deterministic fault: *what* happens *where* and *when*.

    Attributes
    ----------
    site:
        Checkpoint site name, one of :data:`SITES`.
    kind:
        One of :data:`KINDS`.
    indices:
        Fire only when the checkpoint reports one of these unit indices
        (``None`` = any index, including checkpoints with no index).
    times:
        Maximum number of firings (``None`` = unlimited).  Counted per
        process; with explicit ``indices`` the behaviour is fully
        deterministic across worker processes too.
    delay_s:
        Sleep duration for ``kind="slow"``.
    """

    site: str
    kind: str
    indices: Optional[Tuple[int, ...]] = None
    times: Optional[int] = 1
    delay_s: float = 0.0
    fired: int = dataclasses.field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise QueryError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.site not in SITES:
            raise QueryError(
                f"unknown fault site {self.site!r}; expected one of {SITES}")
        if self.indices is not None:
            self.indices = tuple(int(i) for i in self.indices)
        if self.times is not None and int(self.times) <= 0:
            raise QueryError(f"times must be positive or None, got {self.times!r}")
        if float(self.delay_s) < 0.0:
            raise QueryError(f"delay_s must be >= 0, got {self.delay_s!r}")

    def to_dict(self) -> Dict[str, object]:
        return {"site": self.site, "kind": self.kind,
                "indices": list(self.indices) if self.indices is not None else None,
                "times": self.times, "delay_s": self.delay_s}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        indices = data.get("indices")
        return cls(site=str(data["site"]), kind=str(data["kind"]),
                   indices=tuple(indices) if indices is not None else None,
                   times=data.get("times"), delay_s=float(data.get("delay_s", 0.0)))


def _plan_from_env() -> List[FaultSpec]:
    """The plan a parent exported through ``REPRO_FAULT_PLAN``."""
    raw = os.environ.get(_ENV_KEY)
    if not raw:
        return []
    try:
        return [FaultSpec.from_dict(d) for d in json.loads(raw)]
    except (ValueError, KeyError, TypeError):
        return []


_PLAN: List[FaultSpec] = _plan_from_env()

#: Guards each spec's ``times`` check and ``fired`` count: every pool
#: tile of a query may reach the same spec at once.
_FIRE_LOCK = threading.Lock()

#: Whether :func:`suppressed` holds in the calling context.
_SUPPRESSED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "faults_suppressed", default=False
)

#: Counter keys tracked by every :class:`FaultStats` bundle.
_STAT_KEYS = (
    "injected",          # faults actually fired in this process
    "worker_crashes",    # WorkerCrashError caught by map_tiles
    "tiles_retried",     # tiles re-run serially after a failure
)


class FaultStats:
    """A scoped bundle of fault/recovery counters.

    Each :class:`repro.Engine` owns one (surfaced via
    ``stats()["faults"]``) so two engines running concurrently never
    cross-contaminate each other's recovery accounting.  The module
    keeps one aggregate bundle — the process-wide view that
    :func:`fault_stats` has always returned.
    """

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {k: 0 for k in _STAT_KEYS}

    def record(self, key: str, count: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + count

    def reset(self) -> None:
        for key in list(self.counters):
            self.counters[key] = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counters)


#: Process-wide aggregate (the historical module-level view).
_AGGREGATE = FaultStats()

#: The collectors of the calling context's :func:`collecting` scopes,
#: outermost first; an Engine opens one around dispatch so recovery
#: events are attributed to it.
_COLLECTORS: contextvars.ContextVar[Tuple[FaultStats, ...]] = (
    contextvars.ContextVar("fault_collectors", default=())
)


@contextlib.contextmanager
def collecting(stats: FaultStats) -> Iterator[FaultStats]:
    """Attribute all fault/recovery events in this block to ``stats``
    (in addition to the process aggregate and any enclosing scopes)."""
    token = _COLLECTORS.set(_COLLECTORS.get() + (stats,))
    try:
        yield stats
    finally:
        _COLLECTORS.reset(token)


def fault_stats() -> Dict[str, int]:
    """Snapshot of the process-wide aggregate fault/recovery counters."""
    return _AGGREGATE.as_dict()


def reset_fault_stats() -> None:
    _AGGREGATE.reset()


def _record(key: str, count: int = 1) -> None:
    _AGGREGATE.record(key, count)
    for collector in _COLLECTORS.get():
        collector.record(key, count)


@contextlib.contextmanager
def suppressed() -> Iterator[None]:
    """Disable fault firing for the enclosed block (used by recovery)."""
    token = _SUPPRESSED.set(True)
    try:
        yield
    finally:
        _SUPPRESSED.reset(token)


def active() -> bool:
    """Whether any fault plan could fire right now (injected in-process
    or inherited via ``REPRO_FAULT_PLAN``).  Checkpoints that must do
    extra work *before* a fault can land — e.g. the WAL flushing a
    half-written frame so a kill produces a genuinely torn record —
    gate that work on this, keeping the happy path at one truthiness
    test."""
    return bool(_PLAN) and not _SUPPRESSED.get()


def fire(site: str, index: Optional[int] = None) -> None:
    """Fire any matching injected fault at ``site`` / ``index``.

    No-op unless a plan is loaded — by an :func:`inject` scope or from
    ``REPRO_FAULT_PLAN`` at import — checked first, so production
    checkpoints cost one truthiness test.
    """
    if not _PLAN or _SUPPRESSED.get():
        return
    for spec in _PLAN:
        if spec.site != site:
            continue
        if spec.indices is not None and (index is None or int(index) not in spec.indices):
            continue
        with _FIRE_LOCK:
            if spec.times is not None and spec.fired >= spec.times:
                continue
            spec.fired += 1
        _record("injected")
        if spec.kind == "slow":
            time.sleep(spec.delay_s)
        elif spec.kind == "crash":
            raise WorkerCrashError(
                f"injected worker crash at {site!r} (unit {index})",
                site=site, index=index)
        elif spec.kind == "alloc":
            raise ResourceLimitError(
                f"injected allocation failure at {site!r} (unit {index})",
                what=f"injected fault at {site}")
        elif spec.kind == "kill":
            os._exit(17)


@contextlib.contextmanager
def inject(*specs: FaultSpec) -> Iterator[List[FaultSpec]]:
    """Activate deterministic fault specs for the enclosed block.

    Nestable; each scope removes exactly the specs it added.  The plan
    is mirrored into ``REPRO_FAULT_PLAN`` so worker processes spawned
    inside the scope load it when they import the module.
    """
    for spec in specs:
        if not isinstance(spec, FaultSpec):
            raise QueryError(f"inject() takes FaultSpec instances, got {spec!r}")
    added = list(specs)
    _PLAN.extend(added)
    saved_env = os.environ.get(_ENV_KEY)
    os.environ[_ENV_KEY] = json.dumps([s.to_dict() for s in _PLAN])
    try:
        yield added
    finally:
        for spec in added:
            try:
                _PLAN.remove(spec)
            except ValueError:
                pass
        if _PLAN:
            os.environ[_ENV_KEY] = json.dumps([s.to_dict() for s in _PLAN])
        elif saved_env is not None:
            os.environ[_ENV_KEY] = saved_env
        else:
            os.environ.pop(_ENV_KEY, None)
