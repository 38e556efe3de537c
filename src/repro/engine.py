"""``repro.engine`` — the stateful dataset-session API.

The paper's whole premise is *preprocess an uncertain point set once,
then answer many queries fast*.  :class:`Engine` is the public form of
that contract: construct it once from a ``Sequence[UncertainPoint]`` and
it owns a **lazy, keyed index registry**: the
:class:`repro.QueryPlanner` that answers every tier; what the planner
builds on first use (the :class:`repro.ModelColumns` SoA store, the
dual-tree :class:`repro.EnvelopeObjectTree`, the evaluators'
:class:`~repro.core.evaluators.EvalCache`, one
:class:`repro.QuantizedEnvelopeIndex` per ``(eps, rel, criterion)``);
spiral-search threshold structures; and Monte-Carlo sample blocks keyed
by ``(s, seed)``.  Repeated batches never rebuild what the session
holds, and the exact tier builds none of the pruning structures.  The
stateless :mod:`repro.batch` facade wraps a per-call throwaway
``Engine``; answers are bit-identical either way.

Quick start::

    import numpy as np
    from repro import Engine, QuerySpec, UniformDiskPoint

    points = [UniformDiskPoint((0, 0), 1), UniformDiskPoint((3, 0), 1)]
    engine = Engine(points)                 # build-once session
    Q = np.array([[1.4, 0.0], [2.0, 0.5]])

    engine.expected_nn_many(Q)              # winners + values
    engine.nonzero_nn_many(Q)               # Lemma 2.1 sets
    res = engine.query(Q, QuerySpec("expected_nn", tier="approx", eps=0.5))
    res.answers, res.values, res.fallback   # structured QueryResult

    engine.insert([UniformDiskPoint((9, 9), 1)])   # dynamic updates
    engine.remove([0])
    engine.stats()                          # registry / cache telemetry

Queries are **declarative**: a frozen :class:`QuerySpec` names the
method (``expected_nn`` / ``nonzero`` / ``threshold`` / ``expected_knn``
/ ``mc_pnn``), the tier (``exact`` / ``pruned`` / ``approx`` with
``eps`` / ``rel``), the method parameters (``k``, ``tau``, Monte-Carlo
``s`` / ``epsilon`` / ``seed`` / ``adaptive`` / ``tol``), an optional
candidate ``subset`` mask, and per-query execution overrides
(``tile_bytes`` / ``parallel_backend`` / ``parallel_workers``).  Each
method is one :class:`repro.methods.Method` record in
:data:`repro.methods.METHODS`; the engine reads that record to answer
every tier with one planner call and returns a structured
:class:`QueryResult` — answers, values, per-row certificate / fallback
masks, timing, and (opt-in) candidates-pruned diagnostics.  The exact
tier runs in the planner's row tiles, so it honours ``tile_bytes`` and
``memory_budget_bytes`` like the other tiers.

Dynamic updates are **generation-tagged**: every registry entry is
stamped with the generation it was built at, and :meth:`Engine.insert`
/ :meth:`Engine.remove` bump the generation so stale indexes miss
lazily (rebuilt on the next query of that key, never eagerly).  The
pruned tier's per-generation structures follow an incremental policy
instead: inserts append freshly summarised columns in place
(:meth:`repro.ModelColumns.extend`) and removals shrink them
(:meth:`~repro.ModelColumns.shrink`), so the objects already summarised
are never reprocessed, and the dual tree is refit
(:meth:`~repro.core.dual_tree.EnvelopeObjectTree.refit`, repacked on the
next read when the write is too large), so a small write leaves the
next read only its planner and the eval cache to build.

Repeated identical batches (the hot-query serving pattern) are served
from a bounded, generation-tagged **result cache** keyed by the spec
and a digest of the query matrix — the second serving of a hot batch
costs a hash lookup instead of an evaluation pass.  Seeded Monte-Carlo
answers are deterministic and participate; unseeded ones
(``seed=None`` or a live Generator) are never cached.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import math
import os
import time
from collections import Counter, OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from . import io as _io
from .config import (
    DURABILITY as _DURABILITY,
    SeedLike,
    current_execution,
    default_rng,
    execution as _execution_ctx,
)
from .core.knn import monte_carlo_knn_many as _monte_carlo_knn_many
from .core.monte_carlo import MonteCarloPNN, rounds_for_fixed_query
from .core.nonzero import UncertainSet
from .core.parallel import BACKENDS
from .core.planner import _DUAL_COUNTERS, QueryPlanner
from .core.spiral import SpiralSearchPNN
from .core.threshold import ApproxThresholdIndex, ThresholdAnswer
from .errors import QueryError, QueryTimeoutError, WalCorruptionError, WalError
from .geometry.kernels import as_query_array
from .methods import METHODS
from .resilience import deadline as _deadline
from .resilience import faults as _faults
from .resilience import snapshot as _snapshot
from .resilience import wal as _wal
from .uncertain.columns import ModelColumns, TAG_NAMES, model_tag

__all__ = ["Engine", "IndexRegistry", "QueryResult", "QuerySpec", "tier_of"]

_TIERS = ("exact", "pruned", "approx")
#: The registry keys a write carries forward to the next generation (a
#: patched copy each) instead of leaving them to rebuild on the next read.
_CARRIED = (("columns",), ("dual_tree",))
#: Per-family LRU caps on registry entries whose keys embed
#: user-supplied values — without a bound, a long-lived serving session
#: issuing per-request seeds / eps values / candidate masks would grow
#: one (potentially multi-MB) cached structure per distinct value
#: forever.  Sample blocks and their MonteCarloPNN wrappers share a key
#: suffix and are touched together, so they evict roughly in pairs.
_FAMILY_LIMITS = {
    "samples": 4,
    "mc_pnn": 4,
    "quant": 8,
    "subset": 8,
}


def tier_of(exact: bool, eps: Optional[float]) -> str:
    """The tier named by the facade-style ``exact`` / ``eps`` knobs."""
    if eps is not None and exact:
        raise ValueError(
            "exact=True and eps= are contradictory; pick one tier"
        )
    if eps is not None:
        return "approx"
    return "exact" if exact else "pruned"


#: QuerySpec fields checked by type before any method-specific check;
#: ``None`` means "not given", except for ``rel`` and ``delta``.
_INT_FIELDS = ("k", "s", "tile_bytes", "parallel_workers")
_REAL_FIELDS = (
    "eps", "tau", "epsilon", "tol", "deadline_s", "degrade_eps", "rel", "delta",
)


def _number(value, types: tuple) -> bool:
    return isinstance(value, types) and not isinstance(value, (bool, np.bool_))


def _check_field_types(spec: "QuerySpec") -> None:
    """Reject a spec field of the wrong type or range: ints ``>= 1``
    (NumPy ints too, never bools), finite reals, ``delta`` in ``(0, 1)``,
    a known ``parallel_backend`` and bool flags."""
    for name in _INT_FIELDS:
        value = getattr(spec, name)
        if value is not None and not (_number(value, (int, np.integer)) and value >= 1):
            raise QueryError(f"{name} must be an integer >= 1, got {value!r}")
    for name in _REAL_FIELDS:
        value = getattr(spec, name)
        if value is None and name not in ("rel", "delta"):
            continue
        if not (_number(value, (int, float, np.integer, np.floating))
                and math.isfinite(value)):
            raise QueryError(f"{name} must be a finite number, got {value!r}")
    if not 0.0 < spec.delta < 1.0:
        raise QueryError(f"delta must lie in (0, 1), got {spec.delta!r}")
    if spec.parallel_backend is not None and spec.parallel_backend not in BACKENDS:
        raise QueryError(
            f"parallel_backend must be one of {BACKENDS}, "
            f"got {spec.parallel_backend!r}"
        )
    for name in ("adaptive", "diagnostics"):
        if not isinstance(getattr(spec, name), (bool, np.bool_)):
            raise QueryError(
                f"{name} must be a boolean, got {getattr(spec, name)!r}"
            )


def _seed_key(seed: SeedLike) -> Optional[int]:
    """A hashable cache key for a seed-like value, or ``None`` when the
    draw is not reproducible from the value (live generators, entropy
    seeds) and therefore must never be cached."""
    if isinstance(seed, bool):
        return None
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return None


@dataclasses.dataclass(frozen=True)
class QuerySpec:
    """A declarative description of one batched query.

    Parameters
    ----------
    method:
        ``"expected_nn"`` | ``"nonzero"`` | ``"threshold"`` |
        ``"expected_knn"`` | ``"mc_pnn"``.
    tier:
        ``"pruned"`` (default, prune-then-evaluate), ``"exact"``
        (unpruned cross-check tier), or ``"approx"`` (the quantized
        envelope; requires ``eps``).
    eps / rel:
        Certification budget of the approx tier (``max(eps, rel *
        dist)``).
    k:
        Neighbor count for ``expected_knn``.
    tau:
        Probability threshold in ``[0, 1)`` for ``threshold``.
    s / epsilon / delta / seed / adaptive / tol:
        Monte-Carlo controls for ``mc_pnn`` (``s`` rounds or the
        Chernoff pair ``epsilon`` / ``delta``; ``seed`` keys the shared
        sample block; ``adaptive`` + ``tol`` turn on empirical-Bernstein
        early stopping).
    subset:
        Optional candidate mask — a boolean mask of length ``n`` or a
        sequence of object indices; the query runs against exactly that
        sub-dataset (answers are reported in the full dataset's index
        space).
    tile_bytes / parallel_backend / parallel_workers:
        Per-query overrides of the execution settings
        (:func:`repro.config.execution`, for this query alone).
    diagnostics:
        Collect candidates-pruned statistics into
        :attr:`QueryResult.diagnostics`, read from the counters of the
        pass that answered.
    deadline_s:
        Optional cooperative wall-clock budget for this batch.  Checked
        at tile/chunk boundaries across the stack; expiry raises
        :class:`repro.errors.QueryTimeoutError` (``on_deadline="raise"``)
        or degrades the unfinished rows (``"degrade"``).  Deadline
        queries are never served from (or stored in) the result cache.
    on_deadline:
        ``"raise"`` (default) or ``"degrade"``.  Degradation re-plans
        the rows not finished in time on the approx tier and returns a
        complete :class:`QueryResult` whose :attr:`QueryResult.degraded`
        mask and certificate mark those rows honestly.  Only methods
        with an approx tier (``expected_nn`` / ``nonzero`` /
        ``threshold``) can degrade.
    degrade_eps:
        Certification budget used for degraded rows (default: 1% of the
        dataset's bounding-box diagonal, or ``10 * eps`` when the query
        already runs on the approx tier).

    Construction checks every field's type and range (ints ``>= 1``,
    finite reals, ``delta`` in ``(0, 1)``, a known backend, bool flags)
    and raises :class:`repro.errors.QueryError` on a bad one, which the
    HTTP service answers with a 400.
    """

    method: str
    tier: str = "pruned"
    eps: Optional[float] = None
    rel: float = 0.0
    k: Optional[int] = None
    tau: Optional[float] = None
    s: Optional[int] = None
    epsilon: Optional[float] = None
    delta: float = 0.05
    seed: SeedLike = 0
    adaptive: bool = False
    tol: Optional[float] = None
    subset: Optional[Tuple[int, ...]] = None
    tile_bytes: Optional[int] = None
    parallel_backend: Optional[str] = None
    parallel_workers: Optional[int] = None
    diagnostics: bool = False
    deadline_s: Optional[float] = None
    on_deadline: str = "raise"
    degrade_eps: Optional[float] = None

    def __post_init__(self):
        # isinstance first: an unhashable name must not reach the lookup.
        method = METHODS.get(self.method) if isinstance(self.method, str) else None
        if method is None:
            raise QueryError(
                f"unknown query method {self.method!r}; "
                f"expected {tuple(METHODS)}"
            )
        if self.tier not in _TIERS:
            raise QueryError(
                f"unknown planner tier {self.tier!r}; expected {_TIERS}"
            )
        _check_field_types(self)
        if self.tier == "approx":
            if not method.approx:
                raise QueryError(
                    f"{self.method} has no approx tier"
                )
            if self.eps is None:
                raise QueryError("the approx tier requires eps")
            if not (float(self.eps) > 0.0):
                raise QueryError("eps must be positive")
        elif self.eps is not None:
            raise QueryError("eps= requires tier='approx'")
        if self.rel < 0.0:
            raise QueryError("rel must be non-negative")
        method.check(self)
        if self.deadline_s is not None and not float(self.deadline_s) > 0.0:
            raise QueryError("deadline_s must be positive")
        if self.on_deadline not in ("raise", "degrade"):
            raise QueryError(
                f"on_deadline must be 'raise' or 'degrade', "
                f"got {self.on_deadline!r}"
            )
        if self.on_deadline == "degrade" and not method.approx:
            raise QueryError(
                f"{self.method} has no approx tier to degrade onto; "
                f"use on_deadline='raise'"
            )
        if self.degrade_eps is not None and not float(self.degrade_eps) > 0.0:
            raise QueryError("degrade_eps must be positive")
        if self.subset is not None:
            mask_len = None
            sub = np.atleast_1d(np.asarray(self.subset))
            if sub.ndim != 1:
                raise QueryError("subset must be a 1-D mask or index list")
            if sub.dtype == bool:
                # The dataset size is unknown here; remember the mask
                # length so the engine can reject a mask built against
                # a different dataset instead of misreading it.
                mask_len = sub.shape[0]
                sub = np.flatnonzero(sub)
            elif sub.size and not np.issubdtype(sub.dtype, np.integer):
                raise QueryError(
                    "subset indices must be integers (or a boolean mask)"
                )
            sub = np.unique(sub.astype(np.intp))
            if sub.size and sub[0] < 0:
                raise QueryError("subset indices must be non-negative")
            object.__setattr__(self, "subset", tuple(int(i) for i in sub))
            object.__setattr__(self, "_subset_mask_len", mask_len)

    # -- wire codecs ----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable dict of every spec field.

        The inverse of :meth:`from_dict`: ``QuerySpec.from_dict(spec.to_dict())
        == spec`` for every serializable spec.  Tuple-valued fields
        (``subset``) become lists; NumPy scalars become native numbers.
        Raises :class:`repro.errors.QueryError` when the spec cannot be
        represented on the wire (a live ``seed`` generator — its stream
        state is not a value).
        """
        if self.seed is not None and _seed_key(self.seed) is None:
            raise QueryError(
                "QuerySpec.to_dict requires an int (or None) seed; live "
                "generator state cannot be serialized"
            )
        out: Dict[str, object] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, np.integer):
                value = int(value)
            elif isinstance(value, np.floating):
                value = float(value)
            elif isinstance(value, np.bool_):
                value = bool(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data) -> "QuerySpec":
        """Build a :class:`QuerySpec` from :meth:`to_dict` output.

        Unknown keys are rejected with :class:`repro.errors.QueryError`
        (a wire payload naming fields this version does not know is a
        schema mismatch, not something to silently drop), and every
        known field goes through the constructor's full validation.
        """
        if not isinstance(data, dict):
            raise QueryError(
                f"QuerySpec encoding must be a JSON object, "
                f"got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise QueryError(f"unknown QuerySpec fields: {unknown}")
        if "method" not in data:
            raise QueryError("QuerySpec encoding requires 'method'")
        return cls(**data)

    # -- caching -------------------------------------------------------------
    def cache_key(self) -> Optional[tuple]:
        """Hashable identity of everything that can change the returned
        result, or ``None`` when the spec is inherently uncacheable
        (unseeded randomness).  Execution overrides are excluded (they
        never change answer bits); ``diagnostics`` is included because
        it changes the result's payload."""
        if self.deadline_s is not None:
            # What completes before a wall-clock deadline is inherently
            # non-deterministic; such results must never be replayed.
            return None
        seeded = METHODS[self.method].seeded
        seed = _seed_key(self.seed) if seeded else None
        if seeded and seed is None:
            return None
        return (
            self.method,
            self.tier,
            self.eps,
            self.rel,
            self.k,
            self.tau,
            self.s,
            self.epsilon,
            self.delta,
            seed,
            self.adaptive,
            self.tol,
            self.subset,
            self.diagnostics,
        )


def resolve_spec(
    spec: Optional[QuerySpec], overrides: Dict[str, object]
) -> QuerySpec:
    """The spec a ``query(qs, spec, **overrides)`` call runs: a new spec
    from ``overrides`` alone, or ``spec`` with ``overrides`` replaced.

    ``dataclasses.replace`` re-runs ``__post_init__`` on the already
    converted index tuple, so a boolean subset mask's original length is
    restored here and the wrong-dataset guard keeps working.
    """
    if spec is None:
        return QuerySpec(**overrides)
    if not overrides:
        return spec
    mask_len = getattr(spec, "_subset_mask_len", None)
    resolved = dataclasses.replace(spec, **overrides)
    if "subset" not in overrides and mask_len is not None:
        object.__setattr__(resolved, "_subset_mask_len", mask_len)
    return resolved


@dataclasses.dataclass
class QueryResult:
    """Structured answer batch returned by :meth:`Engine.query`.

    ``answers`` is the method's primary payload: winner indices
    (``expected_nn``), per-row ``NN!=0`` frozensets (``nonzero``),
    ``{index: probability}`` dicts (``threshold`` / ``mc_pnn``), or the
    ``(m, k)`` ranking matrix (``expected_knn``).  ``values`` carries
    the expected distances for ``expected_nn``; ``fallback`` /
    ``certificate`` are the approx tier's per-row exactness mask and
    certified error budget.  ``degraded`` (deadline queries under
    ``on_deadline="degrade"`` only) marks the rows that were re-planned
    on the approx tier after the deadline expired.  ``plan`` records
    the compiled route and the registry keys it touched;
    ``diagnostics`` holds timing plus the opt-in candidates-pruned
    statistics.
    """

    spec: QuerySpec
    answers: object
    values: Optional[np.ndarray] = None
    fallback: Optional[np.ndarray] = None
    certificate: Optional[np.ndarray] = None
    degraded: Optional[np.ndarray] = None
    m: int = 0
    n: int = 0
    generation: int = 0
    elapsed: float = 0.0
    cached: bool = False
    plan: Dict[str, object] = dataclasses.field(default_factory=dict)
    diagnostics: Dict[str, float] = dataclasses.field(default_factory=dict)

    def _replica(self, elapsed: float) -> "QueryResult":
        """A cache-hit copy with fresh containers, so callers can mutate
        what they receive without corrupting the cached original."""

        def dup(payload):
            if isinstance(payload, np.ndarray):
                return payload.copy()
            if isinstance(payload, list):
                return [
                    dict(row) if isinstance(row, dict) else row
                    for row in payload
                ]
            return payload

        return dataclasses.replace(
            self,
            answers=dup(self.answers),
            values=dup(self.values),
            fallback=dup(self.fallback),
            certificate=dup(self.certificate),
            degraded=dup(self.degraded),
            elapsed=elapsed,
            cached=True,
            plan=copy.deepcopy(self.plan),
            diagnostics=dict(self.diagnostics),
        )


class IndexRegistry:
    """Generation-tagged cache of the session's built structures.

    Every entry is stamped with the :class:`Engine` generation it was
    built at; a lookup only hits when the tags match, so
    insert/remove invalidation is lazy — stale structures are simply
    never returned again and are rebuilt on the next query of their
    key.  ``builds`` / ``hits`` count real constructions vs cache
    returns (the instrumentation the engine tests assert on), and
    ``carried`` the structures writes patched forward to the next
    generation instead (:meth:`carry`).
    """

    def __init__(self):
        self._entries: Dict[tuple, Tuple[int, object]] = {}
        self.builds = 0
        self.hits = 0
        self.carried = 0

    def get(self, key: tuple, generation: int, builder):
        entry = self._entries.get(key)
        if entry is not None and entry[0] == generation:
            self.hits += 1
            return entry[1]
        value = builder()
        self._entries[key] = (generation, value)
        self.builds += 1
        return value

    def peek(self, key: tuple, generation: int):
        """The cached value if present *and current*, else ``None``
        (no instrumentation, no build)."""
        entry = self._entries.get(key)
        if entry is not None and entry[0] == generation:
            return entry[1]
        return None

    def put(self, key: tuple, generation: int, value) -> None:
        self._entries[key] = (generation, value)

    def carry(self, key: tuple, generation: int, value) -> None:
        """:meth:`put` a structure a write patched forward from the
        previous generation (counted in ``carried``, not ``builds``)."""
        self.put(key, generation, value)
        self.carried += 1

    def drop(self, key: tuple) -> None:
        self._entries.pop(key, None)

    def keys(self, generation: Optional[int] = None) -> List[tuple]:
        """All cached keys, or only the live ones for a generation."""
        return sorted(
            (
                k
                for k, (g, _) in self._entries.items()
                if generation is None or g == generation
            ),
            key=repr,
        )

    def sweep(self, generation: int) -> int:
        """Drop every stale entry; returns how many were evicted."""
        stale = [
            k for k, (g, _) in self._entries.items() if g != generation
        ]
        for k in stale:
            del self._entries[k]
        return len(stale)

    def memory_bytes(
        self,
        generation: Optional[int] = None,
        exclude: Tuple[str, ...] = (),
    ) -> int:
        """Approximate footprint of the (live) cached structures — sums
        each value's ``nbytes`` where it reports one.  ``exclude`` names
        key prefixes to skip (the engine excludes ``"mc_pnn"`` wrappers,
        whose block is already counted under its ``"samples"`` key)."""
        total = 0
        for key, (g, value) in self._entries.items():
            if generation is not None and g != generation:
                continue
            if key and key[0] in exclude:
                continue
            nbytes = getattr(value, "nbytes", 0)
            if isinstance(nbytes, (int, np.integer)):
                total += int(nbytes)
        return total


def _key_label(key: tuple) -> str:
    """Human-readable registry key for stats()/repr."""
    name, rest = key[0], key[1:]
    if name == "subset":
        return f"subset[{len(rest[0])}]"
    if not rest:
        return str(name)
    return f"{name}[{', '.join(str(p) for p in rest)}]"


class Engine:
    """A build-once, query-many session over an uncertain point set.

    Parameters
    ----------
    points:
        The uncertain points (any mix of models; may be empty — an
        empty session answers every query with well-shaped empty
        results and grows via :meth:`insert`).
    result_cache_size:
        Maximum number of hot query batches memoised per session
        (``0`` disables result caching; index caching is unaffected).

    All structures are built lazily on first use and cached in the
    :class:`IndexRegistry`; :meth:`insert` / :meth:`remove` bump the
    generation counter, carry the column store and the dual tree
    forward as patched copies, and leave every other index to rebuild
    lazily on its next query.
    """

    def __init__(
        self,
        points: Sequence = (),
        result_cache_size: int = 32,
    ):
        self._points: List = list(points)
        self._generation = 0
        self._registry = IndexRegistry()
        self._result_cache: "OrderedDict[tuple, QueryResult]" = OrderedDict()
        self._result_cache_size = int(result_cache_size)
        self._result_hits = 0
        self._result_misses = 0
        self._family_lru: Dict[str, "OrderedDict[tuple, None]"] = {}
        # Per-engine fault/recovery counters: every query runs under a
        # collecting scope, so two engines working concurrently never
        # cross-contaminate each other's stats()["faults"].
        self._fault_stats = _faults.FaultStats()
        # Durable mode (attached by open_durable): the write-ahead log
        # every mutation appends to before it is acknowledged.
        self._wal: Optional[_wal.WriteAheadLog] = None
        self._wal_dir: Optional[str] = None
        self._wal_replayed = 0

    # -- basic introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    @property
    def n(self) -> int:
        return len(self._points)

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def points(self) -> List:
        """A copy of the current point list (the engine's own list is
        rebound, never mutated, on updates)."""
        return list(self._points)

    @property
    def registry(self) -> IndexRegistry:
        return self._registry

    # -- registry-backed structures ------------------------------------------
    def _require_points(self) -> None:
        if not self._points:
            raise QueryError("this operation requires a non-empty engine")

    def _touch(self, key: tuple) -> None:
        """Record use of a value-keyed registry entry and evict the
        least-recently-used entries of its family beyond the cap."""
        limit = _FAMILY_LIMITS.get(key[0])
        if limit is None:
            return
        lru = self._family_lru.setdefault(key[0], OrderedDict())
        lru[key] = None
        lru.move_to_end(key)
        while len(lru) > limit:
            evicted, _ = lru.popitem(last=False)
            self._registry.drop(evicted)

    def uset(self) -> UncertainSet:
        """The session's shared :class:`repro.UncertainSet` view."""
        self._require_points()
        return self._registry.get(
            ("uset",),
            self._generation,
            lambda: UncertainSet(self._points, copy=False),
        )

    def columns(self) -> ModelColumns:
        """The session's SoA column store (built once, then appended /
        shrunk in place by dynamic updates)."""
        self._require_points()
        return self._registry.get(
            ("columns",),
            self._generation,
            lambda: ModelColumns(self._points),
        )

    def planner(self) -> QueryPlanner:
        """The session's three-tier :class:`repro.QueryPlanner`.  What
        the planner builds on first use — the column store, the dual
        tree, the eval cache and the quantized envelopes — lands in this
        registry under the planner's keys, so it is session-owned."""
        self._require_points()
        generation = self._generation

        def cache(key: tuple, build):
            value = self._registry.get(key, generation, build)
            self._touch(key)
            return value

        return self._registry.get(
            ("planner",),
            generation,
            lambda: QueryPlanner(self._points, cache=cache),
        )

    def object_tree(self):
        """The session's dual-tree
        :class:`~repro.core.dual_tree.EnvelopeObjectTree` (built at most
        once per generation; every pruned-tier query of any criterion
        reuses it)."""
        self._require_points()
        return self.planner().object_tree()

    def quantized_index(
        self, eps: float, criterion: str = "expected", rel: float = 0.0
    ):
        """The session's :class:`repro.QuantizedEnvelopeIndex` for one
        ``(eps, rel, criterion)`` key — the same object the approx tier
        uses, built at most once per key and generation."""
        self._require_points()
        return self.planner().approx_index(eps, rel, criterion)

    def sample_block(self, s: int, seed: SeedLike) -> np.ndarray:
        """The shared ``(s, n, 2)`` Monte-Carlo instantiation block for
        one ``(s, seed)`` key.  Reproducible (int) seeds are cached and
        reused across the PNN and kNN estimators; unseeded draws are
        taken fresh each call."""
        self._require_points()
        key = _seed_key(seed)
        if key is None:
            return self.uset().instantiate_many(default_rng(seed), int(s))
        full = ("samples", int(s), key)
        block = self._registry.get(
            full,
            self._generation,
            lambda: self.uset().instantiate_many(
                default_rng(key), int(s)
            ),
        )
        self._touch(full)
        return block

    def monte_carlo_index(
        self,
        s: Optional[int] = None,
        epsilon: Optional[float] = None,
        delta: float = 0.05,
        seed: SeedLike = 0,
    ) -> MonteCarloPNN:
        """The session's :class:`repro.MonteCarloPNN` over the shared
        sample block for ``(s, seed)`` (uncacheable seeds build a fresh
        structure with the live generator, matching the stateless
        facade's semantics)."""
        self._require_points()
        n = len(self._points)
        if s is None:
            if epsilon is None:
                raise QueryError("provide either s or epsilon")
            s_eff = rounds_for_fixed_query(epsilon, delta, n)
        else:
            s_eff = int(s)
        key = _seed_key(seed)
        if key is None:
            return MonteCarloPNN(
                self._points,
                s=s,
                epsilon=epsilon,
                delta=delta,
                rng=default_rng(seed),
                uset=self.uset(),
            )
        block = self.sample_block(s_eff, key)
        full = ("mc_pnn", s_eff, key)
        mc = self._registry.get(
            full,
            self._generation,
            lambda: MonteCarloPNN(
                self._points,
                s=s_eff,
                epsilon=epsilon,
                delta=delta,
                samples=block,
                uset=self.uset(),
            ),
        )
        self._touch(full)
        return mc

    def spiral_threshold_index(self) -> ApproxThresholdIndex:
        """The session's spiral-search threshold structure."""
        self._require_points()
        spiral = self._registry.get(
            ("spiral",),
            self._generation,
            lambda: SpiralSearchPNN(self._points),
        )
        return self._registry.get(
            ("spiral_threshold",),
            self._generation,
            lambda: ApproxThresholdIndex(self._points, spiral=spiral),
        )

    # -- dynamic updates -----------------------------------------------------
    def insert(self, points: Sequence) -> "Engine":
        """Append uncertain points to the session.

        The column store is extended **in place** (only the new points
        are summarised), and the dual tree, when built, is carried
        forward as a refit copy (:meth:`_carry`); every other cached
        index goes stale via the generation bump and is rebuilt lazily
        on its next query.  The new points take the indices
        ``n .. n + len(points) - 1``.
        """
        new = list(points)
        if not new:
            return self
        if self._wal is not None:
            # Durable mode: append-then-ack.  Serialising the points
            # also validates them — a point the WAL could not replay is
            # rejected here, before any state changes.
            self._wal.append(
                "insert",
                {"points": _io.points_to_wire(new)},
                generation=self._generation + 1,
            )
        cols, tree = (self._registry.peek(key, self._generation) for key in _CARRIED)
        self._points = self._points + new  # rebind: shared views stay valid
        self._generation += 1
        if cols is not None:
            # Incremental append on a shallow clone: extend() rebinds the
            # column arrays (it never mutates them), so cloning the shell
            # keeps any previously handed-out planner/index consistent
            # while still summarising only the new points.
            cols = copy.copy(cols).extend(new)
            self._carry(cols, tree.refit(cols) if tree is not None else None)
        self._registry.sweep(self._generation)  # free superseded indexes
        self._result_cache.clear()
        self._family_lru.clear()
        self._maybe_compact()
        return self

    def remove(self, ids) -> "Engine":
        """Remove the points at the given indices (current positions;
        an int, an index sequence, or a boolean mask of length ``n``).

        Remaining points are re-indexed compactly in order, exactly as
        if the engine had been rebuilt from the surviving points.  The
        column store is shrunk in place, the dual tree is carried forward
        as :meth:`insert` carries it, and other indexes rebuild lazily.
        Removing down to an empty dataset is allowed — subsequent
        queries return well-shaped empty results.
        """
        n = len(self._points)
        ids_arr = np.atleast_1d(np.asarray(ids))
        if ids_arr.dtype == bool:
            if ids_arr.shape != (n,):
                raise QueryError(
                    f"boolean remove mask must have length {n}"
                )
            ids_arr = np.flatnonzero(ids_arr)
        elif ids_arr.size and not np.issubdtype(ids_arr.dtype, np.integer):
            raise QueryError(
                "remove indices must be integers (or a boolean mask)"
            )
        ids_arr = np.unique(ids_arr.astype(np.intp))
        if ids_arr.size == 0:
            return self
        if ids_arr[0] < 0 or ids_arr[-1] >= n:
            raise QueryError(f"remove indices must lie in [0, {n})")
        if self._wal is not None:
            # Durable mode: validation is done, log before mutating.
            self._wal.append(
                "remove",
                {"ids": [int(i) for i in ids_arr]},
                generation=self._generation + 1,
            )
        kept = np.ones(n, dtype=bool)
        kept[ids_arr] = False
        keep = np.flatnonzero(kept)
        cols, tree = (self._registry.peek(key, self._generation) for key in _CARRIED)
        self._points = list(itertools.compress(self._points, kept.tolist()))
        self._generation += 1
        if cols is not None and keep.size:
            # Clone-then-shrink for the same reason insert clones: stale
            # holders of the old columns keep their old arrays.
            cols = copy.copy(cols).shrink(keep)
            self._carry(cols, tree.refit(cols, ids_arr) if tree is not None else None)
        self._registry.sweep(self._generation)  # free superseded indexes
        self._result_cache.clear()
        self._family_lru.clear()
        self._maybe_compact()
        return self

    def _carry(self, columns, tree) -> None:
        """Register a write's patched column store and dual tree for the
        new generation, so the next read builds neither.  A ``None`` tree
        (not built, or a write too large for a refit) is left to build
        lazily; fresh trees come only from the STR pack."""
        for key, value in zip(_CARRIED, (columns, tree)):
            if value is not None:
                self._registry.carry(key, self._generation, value)

    def replace_points(self, points: Sequence) -> "Engine":
        """Replace the entire relation in one mutation (generation
        bump; every cached structure rebuilds lazily).

        The whole-relation form of :meth:`insert` / :meth:`remove`:
        one atomic, WAL-logged ``replace`` record in durable mode, so a
        dataset reload survives a crash as either the old relation or
        the new one — never a mix.
        """
        new = list(points)
        if self._wal is not None:
            self._wal.append(
                "replace",
                {"points": _io.points_to_wire(new)},
                generation=self._generation + 1,
            )
        self._points = new
        self._generation += 1
        self._registry.sweep(self._generation)  # all entries superseded
        self._result_cache.clear()
        self._family_lru.clear()
        self._maybe_compact()
        return self

    # -- snapshot / restore ---------------------------------------------------
    def save(self, path: str) -> str:
        """Write a versioned snapshot of this session to ``path``.

        The snapshot holds the uncertain relation (exact round-trip
        through the wire codec) plus the summarised column store, with
        a checksum and a manifest of the indexes built at save time;
        the write is atomic.  See :mod:`repro.resilience.snapshot`.
        """
        return _snapshot.save_engine(self, path)

    @classmethod
    def load(cls, path: str, result_cache_size: int = 32) -> "Engine":
        """Restore a session saved with :meth:`save`.

        The restored engine answers bit-identically to the saved one;
        indexes rebuild lazily on first use.  Corrupted, truncated, or
        version-mismatched snapshots raise
        :class:`repro.errors.SnapshotError`.
        """
        return _snapshot.load_engine(
            path, result_cache_size=result_cache_size
        )

    # -- durability (write-ahead logging) -------------------------------------

    #: Fixed file names inside a durable directory.
    SNAPSHOT_NAME = "snapshot.npz"
    WAL_NAME = "wal.log"

    @classmethod
    def open_durable(
        cls,
        directory: str,
        points: Optional[Sequence] = None,
        *,
        result_cache_size: int = 32,
        fsync: Optional[str] = None,
    ) -> "Engine":
        """Open a crash-consistent durable session rooted at
        ``directory``.

        The directory holds two files: ``snapshot.npz`` (the latest
        compacted base state, written with :meth:`save`'s atomic
        fsync-rename discipline) and ``wal.log`` (the write-ahead log
        of every mutation since).  Every :meth:`insert` /
        :meth:`remove` / :meth:`replace_points` appends to the log
        *before* it returns — an acknowledged mutation survives
        ``kill -9`` at any instruction (and power loss, under
        ``config.DURABILITY.fsync = "always"``).

        A fresh directory starts a new session from ``points`` (or
        empty).  An existing directory **recovers**: the snapshot is
        loaded, a torn final log record (crash mid-append) is truncated
        away, the surviving records are replayed, and the resulting
        engine is bit-identical to the pre-crash engine that
        acknowledged exactly those mutations — same columns, same
        generation, same query answers.  Passing ``points`` for an
        existing directory is an error (it would silently shadow
        recovered state).

        ``fsync`` overrides the global durability policy for this
        session's log; the log auto-compacts (snapshot-then-truncate)
        past ``config.DURABILITY.compact_bytes`` / ``compact_records``.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        snap_path = os.path.join(directory, cls.SNAPSHOT_NAME)
        wal_path = os.path.join(directory, cls.WAL_NAME)
        existing = os.path.exists(snap_path) or os.path.exists(wal_path)
        if existing and points is not None:
            raise QueryError(
                f"durable directory {directory!r} already holds an "
                f"engine; open it without points= (or remove the "
                f"directory to start over)"
            )
        if os.path.exists(snap_path):
            engine = cls.load(snap_path, result_cache_size=result_cache_size)
        else:
            engine = cls(
                list(points) if points is not None else [],
                result_cache_size=result_cache_size,
            )
            if len(engine):
                # Establish the base immediately: recovery of a fresh
                # durable dataset must not depend on replaying a giant
                # bootstrap record forever.
                _snapshot.save_engine(engine, snap_path)
        wal = _wal.WriteAheadLog.open(
            wal_path,
            base_generation=engine.generation,
            base_n=len(engine),
            fsync=fsync,
        )
        try:
            base = wal.base_generation
            if base is not None and base > engine._generation:
                raise WalError(
                    f"WAL {wal_path!r} is based on generation {base} but "
                    f"the snapshot holds generation {engine._generation} "
                    f"— the snapshot was replaced with an older one; "
                    f"refusing to replay over it",
                    path=wal_path, reason="base-generation",
                )
            engine._replay_wal(wal.records, wal_path)
        except BaseException:
            wal.close()
            raise
        engine._wal = wal
        engine._wal_dir = directory
        return engine

    def _replay_wal(self, records, wal_path: str) -> None:
        """Apply the log's surviving records on top of the loaded
        snapshot, as one net effect.

        Records whose generation the snapshot already covers are
        skipped (that is what makes a crash between snapshot publish
        and log rotation harmless).  The rest are folded in log order
        over an index array of the engine's rows as positions in
        ``base + logged``: ``base`` is the snapshot relation (or the
        last ``replace``'s points) and ``logged`` the points inserted
        since.  The fold then applies as one ``remove`` of the dropped
        base rows and one ``insert`` of the surviving logged points,
        and the generation counter is pinned to the last record's
        stamp.  Per-row column summaries are independent, so the
        result is bit-identical to applying the records one by one; a
        point inserted and removed inside the log is decoded but never
        summarised.  The inserts' packed discrete batches are collected
        as arrays (:class:`repro.io.DiscreteColumns`) and decoded in one
        :func:`repro.io.points_from_wire` call at the end; other
        encodings decode per record.
        """
        gen = self._generation
        replaced: Optional[List] = None
        n_base = len(self._points)
        # The inserted points in log order: decoded lists, or the point
        # counts of packed discrete batches still in ``packed``.
        logged: List = []
        packed: List[_io.DiscreteColumns] = []
        n_logged = 0
        # The row index array, kept as chunks that are concatenated only
        # when a remove needs it, so an insert record costs O(1).
        chunks = [np.arange(n_base, dtype=np.intp)]
        replayed = 0
        for rec in records:
            if rec.op == "snapshot-marker":
                continue  # base validated by the caller
            if rec.gen <= gen and not replayed:
                continue  # already folded into the snapshot
            if rec.gen != gen + 1:
                raise WalCorruptionError(
                    f"WAL record at offset {rec.offset} jumps from "
                    f"generation {gen} to {rec.gen}; the log is not a "
                    f"contiguous mutation history",
                    path=wal_path, reason="generation", offset=rec.offset,
                )
            gen = rec.gen
            replayed += 1
            if rec.op == "insert":
                wire = rec.payload["points"]
                batch = _io.unpack_discrete(wire)
                if batch is None:
                    part = _io.points_from_wire(wire)
                    count = len(part)
                else:
                    packed.append(batch)
                    part = count = len(batch.names)
                logged.append(part)
                start = n_base + n_logged
                n_logged += count
                chunks.append(
                    np.arange(start, n_base + n_logged, dtype=np.intp)
                )
            elif rec.op == "remove":
                rows = np.concatenate(chunks)
                ids = np.asarray(rec.payload["ids"], dtype=np.intp)
                if ids.size and (ids.min() < 0 or ids.max() >= rows.size):
                    raise WalCorruptionError(
                        f"WAL remove record at offset {rec.offset} names "
                        f"rows outside [0, {rows.size})",
                        path=wal_path, reason="decode", offset=rec.offset,
                    )
                kept = np.ones(rows.size, dtype=bool)
                kept[ids] = False
                chunks = [rows[kept]]
            else:  # replace: a new base, nothing logged on top of it yet
                replaced = _io.points_from_wire(rec.payload["points"])
                n_base = len(replaced)
                logged, packed, n_logged = [], [], 0
                chunks = [np.arange(n_base, dtype=np.intp)]
        if not replayed:
            return
        decoded = iter(
            _io.points_from_wire(_io.DiscreteColumns.concat(packed))
            if packed else ()
        )
        logged = list(itertools.chain.from_iterable(
            itertools.islice(decoded, part) if isinstance(part, int) else part
            for part in logged
        ))
        rows = np.concatenate(chunks)
        self._wal_replayed += replayed
        # _wal is still None, so none of these re-append to the log.
        if replaced is not None:
            self.replace_points(replaced)
        dropped = np.ones(n_base, dtype=bool)
        dropped[rows[rows < n_base]] = False
        if dropped.any():
            self.remove(dropped)
        survivors = rows[rows >= n_base] - n_base
        if survivors.size:
            self.insert([logged[i] for i in survivors])
        self._pin_generation(gen)

    def _pin_generation(self, generation: int) -> None:
        """Move the generation counter to ``generation``, carrying the
        live column store with it (replay applies several log records
        through one in-memory mutation; the counter must still land on
        the last record's stamp so recovery reproduces the pre-crash
        engine exactly)."""
        if generation == self._generation:
            return
        if generation < self._generation:
            raise WalError(
                "generation counter can only move forward",
                reason="base-generation",
            )
        cols = self._registry.peek(("columns",), self._generation)
        self._generation = generation
        if cols is not None:
            self._registry.put(("columns",), generation, cols)
        self._registry.sweep(generation)

    def _maybe_compact(self) -> None:
        """Snapshot-then-truncate once the log outgrows the configured
        bounds (no-op for non-durable sessions)."""
        wal = self._wal
        if wal is None:
            return
        if (
            wal.size_bytes >= _DURABILITY.compact_bytes
            or wal.record_count >= _DURABILITY.compact_records
        ):
            self.compact()

    def compact(self) -> str:
        """Force a log compaction: atomically publish a fresh snapshot
        of the current state, then rotate the write-ahead log down to a
        single ``snapshot-marker`` record.

        Safe against a crash at any point: the snapshot write is
        fsync-rename atomic, and until the rotated log is published the
        old log's records simply replay as no-ops against the new
        snapshot (their generations are already covered).  Returns the
        snapshot path.
        """
        if self._wal is None:
            raise QueryError(
                "compact() requires a durable session (Engine.open_durable)"
            )
        snap_path = os.path.join(self._wal_dir, self.SNAPSHOT_NAME)
        _snapshot.save_engine(self, snap_path)
        # Crash window: new snapshot + old log -> replay skips all.
        _faults.fire("wal.rotate", 0)
        self._wal.rotate(
            base_generation=self._generation, base_n=len(self._points)
        )
        return snap_path

    @property
    def durable(self) -> bool:
        """Whether this session is backed by a live write-ahead log."""
        return self._wal is not None and not self._wal.closed

    @property
    def durable_dir(self) -> Optional[str]:
        return self._wal_dir

    def close(self) -> None:
        """Release durable resources: fsync and close the write-ahead
        log (idempotent; a no-op for non-durable sessions).  Mutating a
        closed durable session raises :class:`repro.errors.WalError`
        instead of silently dropping durability."""
        if self._wal is not None:
            self._wal.close()

    # -- the declarative query surface ---------------------------------------
    def query(self, qs, spec: Optional[QuerySpec] = None, **spec_kwargs) -> QueryResult:
        """Execute one declarative query batch.

        Pass a prebuilt :class:`QuerySpec`, or its fields as keyword
        arguments (``engine.query(Q, method="expected_nn")``).  Returns
        a structured :class:`QueryResult`; repeated identical batches
        (same spec, same query bytes, same generation) are served from
        the session's result cache.
        """
        spec = resolve_spec(spec, spec_kwargs)
        # Validate dataset-dependent spec fields before the cache is
        # consulted, so an invalid spec raises regardless of cache state.
        self._check_subset(spec)
        Q = as_query_array(qs)
        t0 = time.perf_counter()
        key = self._result_key(spec, Q)
        if key is not None:
            hit = self._result_cache.get(key)
            if hit is not None:
                self._result_cache.move_to_end(key)
                self._result_hits += 1
                return hit._replica(elapsed=time.perf_counter() - t0)
            self._result_misses += 1
        with _faults.collecting(self._fault_stats):
            result = self._execute(spec, Q)
        result.elapsed = time.perf_counter() - t0
        if key is not None and self._result_cache_size > 0:
            self._result_cache[key] = result._replica(result.elapsed)
            self._result_cache[key].cached = False
            while len(self._result_cache) > self._result_cache_size:
                self._result_cache.popitem(last=False)
        return result

    def _result_key(self, spec: QuerySpec, Q: np.ndarray) -> Optional[tuple]:
        if self._result_cache_size <= 0:
            return None
        spec_key = spec.cache_key()
        if spec_key is None:
            return None
        digest = hashlib.sha1(
            np.ascontiguousarray(Q).tobytes()
        ).hexdigest()
        return spec_key + (self._generation, Q.shape[0], digest)

    # -- execution -----------------------------------------------------------
    def _execute(self, spec: QuerySpec, Q: np.ndarray) -> QueryResult:
        if spec.subset is not None:
            return self._execute_subset(spec, Q)
        m = Q.shape[0]
        n = len(self._points)
        base = dict(
            spec=spec, m=m, n=n, generation=self._generation
        )
        if n == 0:
            approx = spec.tier == "approx"
            method = METHODS[spec.method]
            return QueryResult(
                answers=method.shape.empty(m),
                fallback=np.zeros(m, dtype=bool) if approx else None,
                values=np.full(m, np.inf) if method.values else None,
                # Nothing to approximate: the (empty) answer is exact,
                # and the certificate keeps the non-empty array contract.
                certificate=(
                    np.zeros(m) if approx and method.values else None
                ),
                plan={"route": "empty", "indexes": []},
                **base,
            )
        before = self._counters() if spec.diagnostics else None
        overrides = {}
        if spec.tile_bytes is not None:
            overrides["tile_bytes"] = spec.tile_bytes
        if spec.parallel_backend is not None:
            overrides["parallel_backend"] = spec.parallel_backend
        if spec.parallel_workers is not None:
            overrides["parallel_workers"] = spec.parallel_workers
        if overrides:
            with _execution_ctx(**overrides):
                result = self._dispatch_resilient(spec, Q, base)
        else:
            result = self._dispatch_resilient(spec, Q, base)
        if spec.diagnostics:
            self._collect_diagnostics(spec, result, before)
        return result

    # -- deadlines & degradation ----------------------------------------------
    def _dispatch_resilient(
        self, spec: QuerySpec, Q: np.ndarray, base: Dict
    ) -> QueryResult:
        """Dispatch under the spec's deadline policy (plain dispatch
        when no deadline is set)."""
        if spec.deadline_s is None:
            return self._dispatch(spec, Q, base)
        if spec.on_deadline == "raise":
            with _deadline.deadline_scope(spec.deadline_s):
                return self._dispatch(spec, Q, base)
        return self._dispatch_degrade(spec, Q, base)

    def _degrade_eps(self, spec: QuerySpec) -> float:
        if spec.degrade_eps is not None:
            return float(spec.degrade_eps)
        if spec.tier == "approx" and spec.eps is not None:
            return 10.0 * float(spec.eps)
        b = self.columns().bboxes
        diag = float(
            np.hypot(
                b[:, 2].max() - b[:, 0].min(), b[:, 3].max() - b[:, 1].min()
            )
        )
        return max(0.01 * diag, 1e-9)

    def _dispatch_degrade(
        self, spec: QuerySpec, Q: np.ndarray, base: Dict
    ) -> QueryResult:
        """Run the batch in row chunks under the deadline; rows that do
        not finish in time re-plan on the approx tier (outside the
        deadline), and the result's ``degraded`` mask marks them."""
        m = Q.shape[0]
        plain = dataclasses.replace(
            spec, deadline_s=None, on_deadline="raise", degrade_eps=None
        )
        if m == 0:
            return self._dispatch(plain, Q, base)
        chunk = self.planner()._tile_rows(
            "exact" if spec.tier == "exact" else "pruned"
        )
        if current_execution().parallel_backend != "serial":
            # A degrade chunk must span several tiles: map_tiles runs a
            # one-tile chunk serially, so the pool (with its crash
            # recovery) would never engage.
            chunk *= 4
        parts: List[QueryResult] = []
        done = 0
        with _deadline.deadline_scope(spec.deadline_s):
            try:
                for ci, lo in enumerate(range(0, m, chunk)):
                    _faults.fire("engine.chunk", ci)
                    _deadline.check_deadline("engine.chunk")
                    hi = min(lo + chunk, m)
                    parts.append(
                        self._dispatch(plain, Q[lo:hi], dict(base, m=hi - lo))
                    )
                    done = hi
            except QueryTimeoutError:
                # The chunk in flight is discarded; its rows (and all
                # later ones) degrade below.
                pass
        degraded = np.zeros(m, dtype=bool)
        if done < m:
            degraded[done:] = True
            eps = self._degrade_eps(spec)
            aspec = QuerySpec(
                spec.method, tier="approx", eps=eps, tau=spec.tau
            )
            parts.append(
                self._dispatch(aspec, Q[done:], dict(base, m=m - done))
            )
        result = self._merge_chunks(spec, parts, base)
        result.degraded = degraded
        if done < m:
            result.plan["route"] = (
                f"{spec.method}/{spec.tier}+degraded[{m - done}]"
            )
            result.plan["degraded_rows"] = int(m - done)
            result.plan["degrade_eps"] = float(eps)
        return result

    @staticmethod
    def _merge_chunks(
        spec: QuerySpec, parts: List[QueryResult], base: Dict
    ) -> QueryResult:
        """Row-concatenate chunked :class:`QueryResult` payloads (every
        degradable method is row-independent, so chunking is exact)."""
        answers = METHODS[spec.method].shape.concat([p.answers for p in parts])

        def cat(field: str, fill_dtype) -> Optional[np.ndarray]:
            if all(getattr(p, field) is None for p in parts):
                return None
            return np.concatenate([
                getattr(p, field)
                if getattr(p, field) is not None
                else np.zeros(p.m, dtype=fill_dtype)
                for p in parts
            ])

        indexes: List[str] = []
        for p in parts:
            for name in p.plan.get("indexes", []):
                if name not in indexes:
                    indexes.append(name)
        return QueryResult(
            answers=answers,
            values=cat("values", np.float64),
            fallback=cat("fallback", bool),
            certificate=cat("certificate", np.float64),
            plan={"route": f"{spec.method}/{spec.tier}", "indexes": indexes},
            **base,
        )

    def _dispatch(
        self, spec: QuerySpec, Q: np.ndarray, base: Dict
    ) -> QueryResult:
        return QueryResult(**METHODS[spec.method].answer(self, spec, Q), **base)

    def _check_subset(self, spec: QuerySpec) -> None:
        """Reject subsets that do not fit this dataset (mask built for a
        different ``n``, out-of-range indices)."""
        if spec.subset is None:
            return
        n = len(self._points)
        mask_len = getattr(spec, "_subset_mask_len", None)
        if mask_len is not None and mask_len != n:
            raise QueryError(
                f"boolean subset mask must have length {n}, got {mask_len}"
            )
        if spec.subset and spec.subset[-1] >= n:
            raise QueryError(f"subset indices must lie in [0, {n})")

    def _execute_subset(self, spec: QuerySpec, Q: np.ndarray) -> QueryResult:
        self._check_subset(spec)
        idx = np.asarray(spec.subset, dtype=np.intp)
        n = len(self._points)
        key = ("subset", spec.subset)
        child = self._registry.get(
            key,
            self._generation,
            lambda: Engine(
                [self._points[i] for i in idx], result_cache_size=0
            ),
        )
        self._touch(key)
        result = child._execute(dataclasses.replace(spec, subset=None), Q)
        result.spec = spec
        result.n = n
        result.generation = self._generation
        result.answers = METHODS[spec.method].shape.remap(result.answers, idx)
        result.plan["route"] = f"subset[{idx.size}]/" + str(
            result.plan.get("route", "")
        )
        return result

    def _counters(self) -> Dict[str, float]:
        """The cumulative counters diagnostics are read from: the
        planner's ``dual_totals`` and ``eval_totals`` and the eval
        cache's hits and per-tag pairs (absent while unbuilt)."""
        out: Dict[str, float] = {}
        planner = self._registry.peek(("planner",), self._generation)
        if planner is not None:
            out.update(planner.dual_totals)
            out.update(planner.eval_totals)
        cache = self._registry.peek(("eval_cache",), self._generation)
        if cache is not None:
            out["eval_cache_hits"] = float(cache.hits)
            for name, pairs in cache.pair_counts.items():
                out[f"pairs_{name}"] = float(pairs)
        return out

    def _collect_diagnostics(
        self, spec: QuerySpec, result: QueryResult, before: Dict[str, float]
    ) -> None:
        """Diagnostics of the call that just answered: how much the
        :meth:`_counters` moved since ``before``, so nothing is re-run
        and every key describes this call alone."""
        delta = {
            key: value - before.get(key, 0.0)
            for key, value in self._counters().items()
        }
        diag: Dict[str, float] = {}
        if result.fallback is not None:
            diag["fallback_rows"] = float(np.count_nonzero(result.fallback))
        # Evaluation-phase breakdown: prune vs evaluate wall time,
        # grouped pairs and eval-cache reuse.  Present whenever the
        # grouped evaluator served the call (an approx call values the
        # candidates of the cells it labels and, for expected NN, its
        # settled rows' winners); the exact tier and the Monte-Carlo
        # rounds evaluate no grouped pairs.
        if delta.get("grouped_calls"):
            diag["eval_pairs"] = delta["pairs"]
            diag["eval_seconds"] = delta["eval_seconds"]
            diag["prune_seconds"] = delta["prune_seconds"]
            diag["eval_cache_hits"] = delta["eval_cache_hits"]
            for key, value in delta.items():
                if key.startswith("pairs_") and value:
                    diag[key] = value
        if spec.tier == "pruned":
            # The traversal telemetry of the prune that answered.
            mean = delta["survivors"] / result.m if result.m else 0.0
            diag["mean_candidates"] = mean
            diag["mean_candidate_fraction"] = mean / result.n
            diag["candidates_pruned_fraction"] = 1.0 - mean / result.n
            for key in _DUAL_COUNTERS:
                diag[key] = delta[key]
        result.diagnostics.update(diag)

    # -- facade-compatible convenience methods --------------------------------
    def nonzero_nn_many(
        self,
        qs,
        exact: bool = False,
        eps: Optional[float] = None,
        rel: float = 0.0,
    ) -> List[FrozenSet[int]]:
        """``NN!=0(q, P)`` per query row (:func:`repro.batch.nonzero_nn_many`
        against this session's cached structures)."""
        return self.query(
            qs, QuerySpec("nonzero", tier=tier_of(exact, eps), eps=eps, rel=rel)
        ).answers

    def expected_nn_many(
        self,
        qs,
        exact: bool = False,
        eps: Optional[float] = None,
        rel: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expected-distance winners ``(indices, values)`` per query row."""
        res = self.query(
            qs,
            QuerySpec(
                "expected_nn", tier=tier_of(exact, eps), eps=eps, rel=rel
            ),
        )
        return res.answers, res.values

    def expected_knn_many(self, qs, k: int, exact: bool = False) -> np.ndarray:
        """Expected-distance kNN ranking, an ``(m, k)`` index matrix."""
        return self.query(
            qs,
            QuerySpec(
                "expected_knn", tier="exact" if exact else "pruned", k=k
            ),
        ).answers

    def threshold_nn_exact_many(
        self,
        qs,
        tau: float,
        exact: bool = False,
        eps: Optional[float] = None,
        rel: float = 0.0,
    ) -> List[Dict[int, float]]:
        """Exact threshold answers ``{i: pi_i(q) > tau}`` per query row."""
        return self.query(
            qs,
            QuerySpec(
                "threshold",
                tier=tier_of(exact, eps),
                tau=tau,
                eps=eps,
                rel=rel,
            ),
        ).answers

    def monte_carlo_pnn_many(
        self,
        qs,
        s: Optional[int] = None,
        epsilon: Optional[float] = None,
        delta: float = 0.05,
        rng: SeedLike = 0,
        exact: bool = False,
        adaptive: bool = False,
        tol: Optional[float] = None,
    ) -> List[Dict[int, float]]:
        """Theorem 4.3/4.5 estimates ``{i: pihat_i(q)}`` per query row,
        over the session's shared ``(s, seed)`` sample block."""
        return self.query(
            qs,
            QuerySpec(
                "mc_pnn",
                tier="exact" if exact else "pruned",
                s=s,
                epsilon=epsilon,
                delta=delta,
                seed=rng,
                adaptive=adaptive,
                tol=tol,
            ),
        ).answers

    def monte_carlo_knn_many(
        self, qs, k: int, s: int = 2000, rng: SeedLike = 0
    ) -> List[Dict[int, float]]:
        """Monte-Carlo ``pi^(k)`` estimates per query row, reusing the
        session's ``(s, seed)`` sample block."""
        if not self._points:
            return [{} for _ in range(as_query_array(qs).shape[0])]
        return _monte_carlo_knn_many(
            self._points,
            qs,
            k,
            s=s,
            rng=rng,
            samples=self.sample_block(s, rng)
            if _seed_key(rng) is not None
            else None,
            uset=self.uset(),
        )

    def approx_threshold_many(
        self, qs, tau: float, eps: float
    ) -> List[ThresholdAnswer]:
        """Spiral-search threshold classification per query row."""
        if not self._points:
            return [
                ThresholdAnswer(above={}, undecided={})
                for _ in range(as_query_array(qs).shape[0])
            ]
        return self.spiral_threshold_index().query_many(qs, tau, eps)

    # -- matrix / instantiation helpers ---------------------------------------
    def dmin_matrix(self, qs) -> np.ndarray:
        """``delta_i(q)`` for every query/point pair, shape ``(m, n)``."""
        Q = as_query_array(qs)
        if not self._points:
            return np.zeros((Q.shape[0], 0))
        return self.uset().dmin_matrix(Q)

    def dmax_matrix(self, qs) -> np.ndarray:
        """``Delta_i(q)`` for every query/point pair, shape ``(m, n)``."""
        Q = as_query_array(qs)
        if not self._points:
            return np.zeros((Q.shape[0], 0))
        return self.uset().dmax_matrix(Q)

    def envelope_many(self, qs) -> Tuple[np.ndarray, np.ndarray]:
        """Batched lower envelope ``Delta(q)``: ``(argmins, values)``."""
        Q = as_query_array(qs)
        if not self._points:
            return (
                np.full(Q.shape[0], -1, dtype=np.intp),
                np.full(Q.shape[0], np.inf),
            )
        return self.uset().envelope_many(Q)

    def expected_distance_matrix(self, qs) -> np.ndarray:
        """``E[d(q, P_i)]`` for every query/point pair, shape ``(m, n)``:
        the planner's exact tier, row-tiled and admission-checked."""
        Q = as_query_array(qs)
        if not self._points:
            return np.zeros((Q.shape[0], 0))
        return self.planner().expected_distance_matrix(Q, tier="exact")

    def instantiate_many(self, rng: SeedLike, s: int) -> np.ndarray:
        """``s`` instantiations of the whole set, shape ``(s, n, 2)`` —
        a writable copy of the session's cached block for int seeds."""
        if not self._points:
            return np.zeros((int(s), 0, 2))
        if _seed_key(rng) is None:
            return self.uset().instantiate_many(default_rng(rng), int(s))
        return self.sample_block(int(s), rng).copy()

    # -- telemetry -----------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Approximate footprint of this session's live cached
        structures (lets cached sub-engines count toward their parent's
        accounting)."""
        return self._registry.memory_bytes(
            self._generation, exclude=("mc_pnn",)
        )

    def model_histogram(self) -> Dict[str, int]:
        """``{model-type name: count}`` over the current dataset (from
        the column store when built, isinstance dispatch otherwise)."""
        cols = self._registry.peek(("columns",), self._generation)
        if cols is not None:
            return cols.tag_histogram()
        counts = Counter(model_tag(p) for p in self._points)
        return {
            TAG_NAMES[t]: c for t, c in sorted(counts.items())
        }

    def stats(self) -> Dict[str, object]:
        """Session telemetry: dataset size, model histogram, built index
        keys, generation counter, registry instrumentation, and the
        approximate memory footprint of cached columns/indexes."""
        live = self._registry.keys(self._generation)
        out = {
            "n": len(self._points),
            "generation": self._generation,
            "models": self.model_histogram(),
            "built_indexes": [_key_label(k) for k in live],
            "registry_builds": self._registry.builds,
            "registry_hits": self._registry.hits,
            "registry_carried": self._registry.carried,
            "memory_bytes": self._registry.memory_bytes(
                self._generation, exclude=("mc_pnn",)
            ),
            "result_cache_entries": len(self._result_cache),
            "result_cache_hits": self._result_hits,
            "result_cache_misses": self._result_misses,
            # This engine's fault/recovery counters (injected faults,
            # worker crashes recovered, tiles retried serially) — scoped
            # per engine; repro.resilience.faults.fault_stats() keeps
            # the process-wide aggregate.
            "faults": self._fault_stats.as_dict(),
        }
        planner = self._registry.peek(("planner",), self._generation)
        if planner is not None and planner.dual_totals["traversals"]:
            # Cumulative dual-tree telemetry over this planner's prune
            # passes: node pairs bounded/pruned, leaf-stage bound
            # evaluations, and emitted survivors.
            out["dual_tree"] = dict(planner.dual_totals)
        if planner is not None and planner.eval_totals["grouped_calls"]:
            # Evaluation-phase telemetry: grouped kernel passes, pairs
            # they evaluated, prune/evaluate wall-time split, plus the
            # EvalCache's reuse counters and per-model-tag pair
            # histogram.
            ev: Dict[str, object] = dict(planner.eval_totals)
            cache = self._registry.peek(("eval_cache",), self._generation)
            if cache is not None:
                ev["cache_hits"] = cache.hits
                ev["cache_builds"] = cache.builds
                ev["pairs_by_tag"] = dict(cache.pair_counts)
            out["evaluators"] = ev
        if self._wal is not None:
            # Durable-session telemetry: log depth, fsync latency, and
            # how many records the last recovery replayed.
            out["wal"] = {
                **self._wal.stats(),
                "replayed": self._wal_replayed,
                "directory": self._wal_dir,
            }
        # Telemetry is an operational surface (logged, scraped, shipped
        # over HTTP by repro.service): normalise any NumPy scalars the
        # counters picked up so json.dumps always succeeds on it.
        return _io.json_safe(out)

    def __repr__(self) -> str:
        stats = self.stats()
        models = ", ".join(
            f"{name}: {count}" for name, count in stats["models"].items()
        )
        mib = stats["memory_bytes"] / float(1 << 20)
        return (
            f"Engine(n={stats['n']}, generation={stats['generation']}, "
            f"models={{{models}}}, "
            f"indexes={len(stats['built_indexes'])}, "
            f"~{mib:.2f} MiB cached)"
        )
