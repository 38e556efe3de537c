"""Global numeric configuration for the library.

The paper assumes a real-RAM model; this implementation works with IEEE
doubles plus bracketed root isolation.  All tolerance knobs live here so
that experiments can tighten or relax them in one place, and the random
sources used by Monte-Carlo instantiation (Section 4.2) and the batch
kernels are normalised here to a single :class:`numpy.random.Generator`
convention.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import random
from typing import ContextManager, Iterator, Optional, TypeVar, Union

import numpy as np


@dataclasses.dataclass
class Tolerances:
    """Numeric tolerances used across the geometry substrate.

    Attributes
    ----------
    abs_eps:
        Absolute tolerance for coordinate comparisons and vertex snapping.
    rel_eps:
        Relative tolerance for distance comparisons.
    root_eps:
        Convergence tolerance for 1-D root isolation (envelope breakpoints,
        curve/curve intersections).
    angle_samples:
        Default number of angular samples used to bracket sign changes when
        intersecting polar curves.  Each pair of Apollonius branches crosses
        at most twice (Lemma 2.2), so a moderately fine grid suffices; the
        value is configurable for stress experiments.
    """

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9
    root_eps: float = 1e-12
    angle_samples: int = 512


#: Module-level default tolerances.  Kept for back-compat: modules bind the
#: object itself (``from ..config import TOLERANCES``), so adjustments must
#: mutate its fields in place — prefer the :func:`tolerances` context
#: manager, which does exactly that and restores the previous values.
TOLERANCES = Tolerances()

_K = TypeVar("_K")


def _check_fields(knobs: _K, what: str, overrides: dict) -> None:
    """Reject unknown field names with
    ``TypeError("unknown <what> fields: [...]")``."""
    unknown = set(overrides) - {f.name for f in dataclasses.fields(knobs)}
    if unknown:
        raise TypeError(f"unknown {what} fields: {sorted(unknown)}")


@contextlib.contextmanager
def _overridden(knobs: _K, what: str, overrides: dict) -> Iterator[_K]:
    """Set ``overrides`` on the live ``knobs`` object in place and
    restore the previous values on exit, even on exception."""
    _check_fields(knobs, what, overrides)
    saved = {name: getattr(knobs, name) for name in overrides}
    try:
        for name, value in overrides.items():
            setattr(knobs, name, value)
        yield knobs
    finally:
        for name, value in saved.items():
            setattr(knobs, name, value)


def tolerances(**overrides: Union[float, int]) -> ContextManager[Tolerances]:
    """Temporarily override fields of the global :data:`TOLERANCES`.

    Usage::

        with config.tolerances(abs_eps=1e-6, angle_samples=2048):
            ...  # code under relaxed/stressed tolerances

    The overrides are applied by in-place mutation (so modules that
    imported the ``TOLERANCES`` object see them) and restored on exit,
    even on exception.  Yields the live :class:`Tolerances` object.
    """
    return _overridden(TOLERANCES, "tolerance", overrides)


def almost_equal(a: float, b: float, tol: Tolerances = None) -> bool:
    """Return True when ``a`` and ``b`` agree up to the configured tolerance."""
    tol = tol or TOLERANCES
    return abs(a - b) <= tol.abs_eps + tol.rel_eps * max(abs(a), abs(b))


# -- execution (tiling / parallelism) ----------------------------------------


@dataclasses.dataclass
class Execution:
    """Knobs for the tiled, optionally parallel batch execution engine.

    Attributes
    ----------
    tile_bytes:
        Target byte budget for the per-tile floating-point working set of
        the planner's exact tier (which also serves the
        :class:`repro.Engine` exact tier).  A batch of ``m`` queries over ``n``
        objects is processed in row tiles sized so the simultaneous
        ``(rows, n)`` float64 temporaries stay within this budget —
        peak memory is O(tile), never O(m * n).  The default (16 MiB)
        bounds the working set to an L3-cache-sized slice while keeping
        tiles wide enough to amortize per-object dispatch; shrink it to
        cap memory harder on huge batches.  The pruned tier is not
        row-tiled: it sizes its refinement chunks and its evaluator pair
        batches from the same budget.
    parallel_backend:
        ``"serial"`` (default) or ``"thread"`` — how query tiles and
        dual-tree query subtrees are fanned out
        (:func:`repro.core.parallel.map_tiles`).  Results are always
        assembled in tile order, so both backends return identical
        answers; any other value is rejected with
        :class:`repro.errors.QueryError`.
    parallel_workers:
        Worker count for the parallel backends (``None`` = CPU count).
    dtype:
        ``"float64"`` (default) or ``"float32"``.  In float32 mode the
        grouped quadrature and discrete expected-distance kernels used
        to resolve the approx tier's fallback rows run in single
        precision, and a certified per-row error bound is folded into
        the reported certificate (instead of the exact tier's 0); disk
        pairs keep their float64 closed form and a zero bound.  The
        exact and pruned tiers always stay float64 and bit-identical.
    memory_budget_bytes:
        Optional admission-control budget (``None`` = unlimited).  When
        set, the planner's allocation estimator auto-tiles tile-sized
        working sets down to the budget and rejects requests whose
        unavoidable dense outputs (distance matrices, Monte-Carlo count
        matrices, sample blocks) would exceed it, raising
        :class:`repro.errors.ResourceLimitError` instead of OOM-ing.
    max_workers:
        Optional hard cap applied on top of ``parallel_workers`` by
        :func:`repro.core.parallel.resolve_workers` (``None`` = no cap).
        Lets an operator bound fan-out globally regardless of what a
        caller requests.
    """

    tile_bytes: int = 16 * 1024 * 1024
    parallel_backend: str = "serial"
    parallel_workers: Optional[int] = None
    dtype: str = "float64"
    memory_budget_bytes: Optional[int] = None
    max_workers: Optional[int] = None


#: The process-default execution settings, which every context starts
#: from.  :func:`execution` never writes it; code reads the settings in
#: force through :func:`current_execution`.
EXECUTION = Execution()

#: The settings of the innermost :func:`execution` block of the calling
#: context (unset outside any block).  Pool tiles run in a copy of the
#: submitting context (:mod:`repro.core.parallel`), so they read it too.
_CURRENT: contextvars.ContextVar[Execution] = contextvars.ContextVar("execution")


def current_execution() -> Execution:
    """The execution settings in force in the calling context: the
    innermost :func:`execution` block's, else :data:`EXECUTION`."""
    return _CURRENT.get(EXECUTION)


@contextlib.contextmanager
def execution(**overrides: Union[int, str, None]) -> Iterator[Execution]:
    """Override execution settings for the calling context.

    Usage::

        with config.execution(tile_bytes=1 << 20, parallel_backend="thread"):
            ...  # code under a small-tile, threaded execution regime

    The block runs under a changed copy of :func:`current_execution`
    (yielded), seen by this thread and by the pool tiles it fans out,
    and never by other threads; :data:`EXECUTION` is not written.  The
    previous settings return on exit, even on exception.
    """
    _check_fields(EXECUTION, "execution", overrides)
    settings = dataclasses.replace(current_execution(), **overrides)
    token = _CURRENT.set(settings)
    try:
        yield settings
    finally:
        _CURRENT.reset(token)


# -- cluster (sharded multi-process engine) ----------------------------------


@dataclasses.dataclass
class Cluster:
    """Knobs for the supervised sharded engine (:mod:`repro.cluster`).

    Attributes
    ----------
    shards:
        Default shard count for :class:`repro.ShardedEngine` when the
        constructor does not name one.
    heartbeat_interval_s:
        How often an idle shard worker stamps its heartbeat slot (and
        fires the ``cluster.heartbeat`` checkpoint).
    liveness_timeout_s:
        A worker whose heartbeat is staler than this (while idle) is
        declared dead and respawned by the supervisor.
    shard_timeout_s:
        Per-attempt budget for one shard's answer to one query request;
        expiry counts as a failure against the retry budget.
    retry_attempts / retry_base_delay_s / retry_backoff / retry_jitter /
    retry_seed:
        The :class:`repro.resilience.retry.RetryPolicy` the supervisor
        applies to failed shard requests.  Jitter is *seeded* — delays
        are a deterministic function of (seed, site, attempt) — so
        failover runs reproduce exactly.
    snapshot_fallback:
        When True the supervisor writes one PR 7 snapshot per shard at
        construction; a respawn whose shared-memory segment has
        vanished restores the shard from its snapshot instead of
        re-summarising the model objects.
    """

    shards: int = 2
    heartbeat_interval_s: float = 0.2
    liveness_timeout_s: float = 5.0
    shard_timeout_s: float = 30.0
    retry_attempts: int = 3
    retry_base_delay_s: float = 0.05
    retry_backoff: float = 2.0
    retry_jitter: float = 0.25
    retry_seed: int = 0
    snapshot_fallback: bool = True


#: Module-level default cluster settings; mutate via :func:`cluster`.
CLUSTER = Cluster()


def cluster(**overrides: Union[int, float, bool, None]) -> ContextManager[Cluster]:
    """Temporarily override fields of the global :data:`CLUSTER`.

    Mirrors :func:`tolerances`: in-place mutation, restored on exit.
    """
    return _overridden(CLUSTER, "cluster", overrides)


# -- durability (write-ahead logging) -----------------------------------------


@dataclasses.dataclass
class Durability:
    """Knobs for the crash-consistent write-ahead log
    (:mod:`repro.resilience.wal`).

    Attributes
    ----------
    fsync:
        When appended records reach stable storage, i.e. what an
        acknowledged mutation means:

        * ``"always"`` — every append fsyncs before returning; an ack
          survives power loss.
        * ``"interval"`` — appends fsync at most every
          ``fsync_interval_s`` seconds; an ack survives process death
          (``kill -9``) immediately, power loss only after the next
          sync.  The write is always flushed to the OS page cache
          before the ack either way.
        * ``"off"`` — the kernel decides when to write back; an ack
          survives process death, power loss at the OS's leisure.
    fsync_interval_s:
        Maximum staleness of the log under ``fsync="interval"``.
    compact_bytes / compact_records:
        Log-compaction triggers: when the live log grows past either
        bound, the owning engine snapshots itself and truncates the
        log (a crash-safe snapshot-then-rotate; see
        :meth:`repro.Engine.compact`).
    """

    fsync: str = "always"
    fsync_interval_s: float = 0.05
    compact_bytes: int = 64 * 1024 * 1024
    compact_records: int = 100_000


#: Module-level default durability settings; mutate via :func:`durability`.
DURABILITY = Durability()


def durability(**overrides: Union[int, float, str]) -> ContextManager[Durability]:
    """Temporarily override fields of the global :data:`DURABILITY`.

    Mirrors :func:`tolerances`: in-place mutation, restored on exit.
    """
    fsync = overrides.get("fsync")
    if fsync is not None and fsync not in ("always", "interval", "off"):
        raise TypeError(
            f"fsync must be 'always', 'interval', or 'off', got {fsync!r}"
        )
    return _overridden(DURABILITY, "durability", overrides)


# -- service (multi-tenant query daemon) --------------------------------------


@dataclasses.dataclass
class Service:
    """Knobs for the multi-tenant query daemon (:mod:`repro.service`).

    Attributes
    ----------
    queue_depth:
        Maximum number of requests the coalescing queue may hold;
        submission beyond it is rejected with
        :class:`repro.errors.QueueFullError` (HTTP 429) instead of
        growing an unbounded backlog.
    coalesce:
        Whether the queue merges compatible concurrent requests into
        one planner batch (split back per request afterwards; answers
        stay bit-identical to serial execution).
    max_batch_requests / max_batch_rows:
        Caps on one coalesced batch: how many requests may merge and
        how many total query rows the merged matrix may hold.
    queue_workers:
        Dispatcher threads draining the queue.  The default (1) keeps
        every engine strictly serial; with more, each engine still runs
        under its dataset's lock, and per-spec execution overrides stay
        with the request that set them.
    request_timeout_s:
        Server-side cap on one request's total queue-wait + execution
        time; expiry answers HTTP 504.
    drain_timeout_s:
        How long a shutting-down daemon waits for queued requests to
        finish before stopping the workers anyway.
    default_deadline_s:
        Optional execution deadline applied to requests whose spec does
        not set one (``None`` = no implicit deadline).
    max_body_bytes:
        Largest request body the HTTP front end accepts; a larger
        Content-Length is rejected with
        :class:`repro.errors.PayloadTooLargeError` (HTTP 413) before
        any of the body is read into memory.  ``0`` disables the bound.
    retry_after_s:
        The ``Retry-After`` hint attached to 429 (queue full)
        responses; 503 (draining) responses advertise
        ``drain_timeout_s`` instead, the time by which the backlog is
        gone either way.
    """

    queue_depth: int = 256
    coalesce: bool = True
    max_batch_requests: int = 64
    max_batch_rows: int = 4096
    queue_workers: int = 1
    request_timeout_s: float = 30.0
    drain_timeout_s: float = 10.0
    default_deadline_s: Optional[float] = None
    max_body_bytes: int = 64 * 1024 * 1024
    retry_after_s: float = 1.0


#: Module-level default service settings; mutate via :func:`service`.
SERVICE = Service()


def service(**overrides: Union[int, float, bool, None]) -> ContextManager[Service]:
    """Temporarily override fields of the global :data:`SERVICE`.

    Mirrors :func:`tolerances`: in-place mutation, restored on exit.
    """
    return _overridden(SERVICE, "service", overrides)


# -- random sources ----------------------------------------------------------

SeedLike = Union[None, int, np.random.Generator, random.Random]


def default_rng(seed: SeedLike = None) -> np.random.Generator:
    """Normalise any seed-like value to a :class:`numpy.random.Generator`.

    The single entry point for randomness in the batch engine:

    * ``None`` or an ``int`` — a fresh ``numpy.random.default_rng(seed)``;
    * a ``numpy.random.Generator`` — returned unchanged;
    * a ``random.Random`` — a Generator seeded from its stream (the two
      then advance independently).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, random.Random):
        return np.random.default_rng(seed.getrandbits(64))
    return np.random.default_rng(seed)


class _GeneratorAdapter:
    """Expose the ``random.Random`` surface the scalar samplers use
    (``random`` / ``uniform`` / ``gauss``) on top of a numpy Generator,
    so scalar ``sample()`` implementations accept either source."""

    __slots__ = ("_g",)

    def __init__(self, generator: np.random.Generator):
        self._g = generator

    def random(self) -> float:
        return float(self._g.random())

    def uniform(self, a: float, b: float) -> float:
        return float(self._g.uniform(a, b))

    def gauss(self, mu: float, sigma: float) -> float:
        return float(self._g.normal(mu, sigma))


def scalar_rng(rng: SeedLike) -> Union[random.Random, _GeneratorAdapter]:
    """A ``random.Random``-compatible view of any seed-like value.

    ``random.Random`` instances pass through (preserving legacy streams);
    Generators are wrapped without reseeding, so scalar and batch draws
    taken alternately from the same Generator stay one stream.
    """
    if isinstance(rng, random.Random):
        return rng
    return _GeneratorAdapter(default_rng(rng))
