"""``repro.methods`` — the table of query methods.

Each query method (Lemma 2.1's nonzero NN sets, the Eq. (2) threshold
probabilities, their Monte-Carlo estimates, expected NN and expected
kNN) is one frozen :class:`Method` record in :data:`METHODS`.
:class:`repro.QuerySpec`, :class:`repro.Engine`,
:class:`repro.ShardedEngine`, :mod:`repro.service.wire` and the
coalescing queue read the record instead of branching on the method
name.  The planner runs each method from one row of its pass table
(:data:`repro.core.planner.PASSES`), which the record names, so adding
a method means adding one pass row and one record here.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from .core.planner import PASSES, Pass
from .errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .engine import Engine, QuerySpec

__all__ = ["METHODS", "Method", "Shape"]


# -- answer shapes ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Shape:
    """One kind of answer payload: ``empty(m)`` answers ``m`` rows over
    an empty dataset, ``remap(answers, idx)`` lifts sub-dataset indices
    into the parent's index space, ``concat(parts)`` joins row chunks in
    order, ``encode(answers)`` gives the JSON form and
    ``decode(rows, spec, n)`` inverts it."""

    empty: Callable[[int], object]
    remap: Callable[[object, np.ndarray], object]
    concat: Callable[[List[object]], object]
    encode: Callable[[object], list]
    decode: Callable[[list, "QuerySpec", int], object]


def _concat_arrays(parts: List[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _concat_rows(parts: List[list]) -> list:
    return [row for part in parts for row in part]


def _remap_winners(answers, idx: np.ndarray) -> np.ndarray:
    out = np.asarray(answers).copy()
    won = out >= 0
    out[won] = idx[out[won]]
    return out


def _decode_ranking(rows: list, spec: "QuerySpec", n: int) -> np.ndarray:
    out = np.asarray(rows, dtype=np.intp)
    if out.size == 0:
        # No row to read the width from: a ranking is min(k, n) wide.
        return out.reshape(len(rows), min(int(spec.k), n))
    return out.reshape(len(rows), -1)


#: One winner index per row (``-1`` when nothing can win).
WINNERS = Shape(
    empty=lambda m: np.full(m, -1, dtype=np.intp),
    remap=_remap_winners,
    concat=_concat_arrays,
    encode=lambda answers: np.asarray(answers).tolist(),
    decode=lambda rows, spec, n: np.asarray(rows, dtype=np.intp),
)

#: An ``(m, k)`` index matrix, nearest first.
RANKING = Shape(
    empty=lambda m: np.zeros((m, 0), dtype=np.intp),
    remap=lambda answers, idx: idx[np.asarray(answers)],
    concat=_concat_arrays,
    encode=lambda answers: np.asarray(answers).tolist(),
    decode=_decode_ranking,
)

#: One frozenset of indices per row; sorted index lists on the wire.
SETS = Shape(
    empty=lambda m: [frozenset()] * m,
    remap=lambda answers, idx: [frozenset(int(idx[i]) for i in s) for s in answers],
    concat=_concat_rows,
    encode=lambda answers: [sorted(int(i) for i in row) for row in answers],
    decode=lambda rows, spec, n: [frozenset(int(i) for i in row) for row in rows],
)

#: One ``{index: probability}`` dict per row.  JSON object keys are
#: strings, so the wire carries sorted ``[index, probability]`` pairs.
PROBABILITIES = Shape(
    empty=lambda m: [{} for _ in range(m)],
    remap=lambda answers, idx: [
        {int(idx[i]): v for i, v in row.items()} for row in answers
    ],
    concat=_concat_rows,
    encode=lambda answers: [
        [[int(i), float(row[i])] for i in sorted(row)] for row in answers
    ],
    decode=lambda rows, spec, n: [{int(i): float(p) for i, p in row} for row in rows],
)


# -- the record ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Method:
    """One query method, as every serving layer sees it.

    ``check(spec, n=None)`` rejects bad values of the method's own spec
    fields with :class:`repro.errors.QueryError` (given the dataset size
    ``n``, also those bounded by it).  ``answer(engine, spec, Q)``
    returns the :class:`repro.QueryResult` fields for any tier, from one
    planner call.  ``plan`` is the planner pass that answers it, called
    with the spec field ``arg`` (if any) as its argument.

    ``approx``: the method has an approx tier, so deadline queries may
    degrade onto it.  ``values``: its answers carry expected distances.
    ``seeded``: it is a Monte-Carlo estimate, cached and coalesced only
    under an int seed.

    ``report(planner, Q, tier, k, lo)`` answers one shard with indices
    rebased by ``lo``, and ``merge(parts, spec, n)`` folds the reports
    of contiguous ascending shards into the single-process answer
    fields, bit for bit.  Both are ``None`` for methods whose answers
    depend on every object.
    """

    name: str
    shape: Shape
    check: Callable[..., None]
    answer: Callable[["Engine", "QuerySpec", np.ndarray], Dict[str, object]]
    plan: Pass
    arg: Optional[str] = None
    approx: bool = False
    values: bool = False
    seeded: bool = False
    report: Optional[Callable[..., dict]] = None
    merge: Optional[Callable[..., Dict[str, object]]] = None


# -- spec checks ---------------------------------------------------------------


def _no_fields(spec: "QuerySpec", n: Optional[int] = None) -> None:
    pass


def _check_k(spec: "QuerySpec", n: Optional[int] = None) -> None:
    if spec.k is None or int(spec.k) < 1:
        raise QueryError("expected_knn requires k >= 1")
    if n is not None and int(spec.k) > n:
        raise QueryError(f"k must lie in [1, {n}]")


def _check_tau(spec: "QuerySpec", n: Optional[int] = None) -> None:
    if spec.tau is None or not 0.0 <= float(spec.tau) < 1.0:
        raise QueryError("tau must lie in [0, 1)")


def _check_rounds(spec: "QuerySpec", n: Optional[int] = None) -> None:
    if spec.s is None and spec.epsilon is None:
        raise QueryError("provide either s or epsilon")
    if spec.adaptive and (spec.tol is None or not spec.tol > 0.0):
        raise QueryError("adaptive stopping requires tol > 0")


# -- answers -------------------------------------------------------------------


def _plan(spec: "QuerySpec", *indexes: str) -> Dict[str, object]:
    return {"route": f"{spec.method}/{spec.tier}", "indexes": list(indexes)}


def _planner_answer(engine: "Engine", spec: "QuerySpec", Q: np.ndarray):
    """``answer`` through the planner entry point of the method's pass,
    called as ``name(Q, [arg,] tier=...)``; its approx tier also returns
    the fallback mask."""
    method = METHODS[spec.method]
    call = getattr(engine.planner(), method.plan.name)
    args = [getattr(spec, method.arg)] if method.arg else []
    if spec.tier != "approx":
        return {"answers": call(Q, *args, tier=spec.tier),
                "plan": _plan(spec, "planner")}
    answers, fallback = call(
        Q, *args, tier="approx", eps=spec.eps, rel=spec.rel,
        return_fallback=True,
    )
    return {"answers": answers, "fallback": fallback,
            "plan": _plan(spec, "quant", "planner")}


def _answer_expected_nn(engine: "Engine", spec: "QuerySpec", Q: np.ndarray):
    planner = engine.planner()
    if spec.tier != "approx":
        winners, values = planner.expected_nn_many(Q, tier=spec.tier)
        return {"answers": winners, "values": values,
                "plan": _plan(spec, "planner")}
    winners, values, fallback, f32_bounds = planner.expected_nn_many(
        Q, tier="approx", eps=spec.eps, rel=spec.rel, return_fallback=True
    )
    # Fallback rows resolve exactly in float64; under
    # EXECUTION.dtype="float32" the planner returns their certified
    # kernel error bounds instead, which fold into the eps budget.
    certificate = np.maximum(spec.eps, spec.rel * values)
    certificate[fallback] = 0.0 if f32_bounds is None else f32_bounds
    return {"answers": winners, "values": values, "fallback": fallback,
            "certificate": certificate, "plan": _plan(spec, "quant", "planner")}


def _answer_mc_pnn(engine: "Engine", spec: "QuerySpec", Q: np.ndarray):
    mc = engine.monte_carlo_index(
        s=spec.s, epsilon=spec.epsilon, delta=spec.delta, seed=spec.seed
    )
    exact = spec.tier == "exact"
    answers = mc.query_many(
        Q, planner=None if exact else engine.planner(),
        adaptive=spec.adaptive, tol=spec.tol, delta=spec.delta,
    )
    indexes = ("mc_pnn",) if exact else ("mc_pnn", "planner")
    return {"answers": answers, "plan": _plan(spec, *indexes)}


# -- shard reports and merges --------------------------------------------------


def _report_expected_nn(planner, Q, tier, k, lo) -> dict:
    winners, values = planner.expected_nn_many(Q, tier=tier)
    return {"winners": np.asarray(winners) + lo, "values": values}


def _report_nonzero(planner, Q, tier, k, lo) -> dict:
    report = planner.nonzero_report_many(Q, tier=tier)
    report["best_idx"] = report["best_idx"] + lo
    report["members"] = report["members"] + lo
    return report


def _report_expected_knn(planner, Q, tier, k, lo) -> dict:
    k_local = min(int(k), len(planner))
    idx, values = planner.expected_knn_report_many(Q, k_local, tier=tier)
    return {"idx": idx + lo, "values": values}


def _merge_expected_nn(parts: List[dict]) -> Tuple[np.ndarray, np.ndarray]:
    """Strict-``<`` fold in ascending shard order == dense argmin with
    lowest-index tie-break (shards are ascending contiguous ranges)."""
    winners = np.asarray(parts[0]["winners"]).copy()
    values = np.asarray(parts[0]["values"]).copy()
    for part in parts[1:]:
        v = np.asarray(part["values"])
        upd = v < values
        values[upd] = v[upd]
        winners[upd] = np.asarray(part["winners"])[upd]
    return winners, values


def _merge_expected_knn(parts: List[dict], k: int) -> np.ndarray:
    """Lexicographic ``(value, global index)`` re-sort of the union of
    per-shard top-k reports == stable argsort of the full matrix."""
    idx = np.concatenate([np.asarray(p["idx"]) for p in parts], axis=1)
    vals = np.concatenate([np.asarray(p["values"]) for p in parts], axis=1)
    k_eff = min(k, idx.shape[1])
    order = np.lexsort((idx, vals), axis=-1)[:, :k_eff]
    return np.take_along_axis(idx, order, axis=1)


def _merge_nonzero(parts: List[dict], n_total: int) -> list:
    """Merge per-shard :func:`repro.core.nonzero.support_report`\\ s
    into the global Lemma 2.1 sets (see :mod:`repro.cluster` and the
    proof sketch on ``support_report``)."""
    m = np.asarray(parts[0]["best"]).shape[0]
    bests = np.stack([np.asarray(p["best"]) for p in parts])
    bidx = np.stack([np.asarray(p["best_idx"]) for p in parts])
    seconds = np.stack([np.asarray(p["second"]) for p in parts])
    gbest = bests.min(axis=0)
    # Lowest global index attaining the global best (sentinel n_total
    # marks shards that do not attain it).
    attaining = np.where(bests == gbest[None, :], bidx, n_total)
    garg = attaining.min(axis=0)
    allv = np.concatenate([bests, seconds], axis=0)
    if allv.shape[0] > 1:
        gsecond = np.partition(allv, 1, axis=0)[1]
    else:  # pragma: no cover - one shard always reports two values
        gsecond = np.full(m, np.inf)
    sets = []
    for r in range(m):
        members: List[int] = []
        for part in parts:
            lo = int(part["indptr"][r])
            hi = int(part["indptr"][r + 1])
            mem = np.asarray(part["members"][lo:hi])
            dm = np.asarray(part["member_dmins"][lo:hi])
            thr = np.where(mem == garg[r], gsecond[r], gbest[r])
            members.extend(mem[dm < thr].tolist())
        sets.append(frozenset(members))
    return sets


def _merge_winners(parts: List[dict], spec: "QuerySpec", n: int) -> dict:
    answers, values = _merge_expected_nn(parts)
    return {"answers": answers, "values": values}


# -- the table -----------------------------------------------------------------


METHODS: Dict[str, Method] = {m.name: m for m in (
    Method(
        "expected_nn", WINNERS, _no_fields, _answer_expected_nn,
        PASSES["expected_nn_many"],
        approx=True, values=True,
        report=_report_expected_nn, merge=_merge_winners,
    ),
    Method(
        "nonzero", SETS, _no_fields, _planner_answer,
        PASSES["nonzero_nn_many"],
        approx=True,
        report=_report_nonzero,
        merge=lambda parts, spec, n: {"answers": _merge_nonzero(parts, n)},
    ),
    Method(
        "threshold", PROBABILITIES, _check_tau, _planner_answer,
        PASSES["threshold_nn_exact_many"], "tau",
        approx=True,
    ),
    Method(
        "expected_knn", RANKING, _check_k, _planner_answer,
        PASSES["expected_knn_many"], "k",
        report=_report_expected_knn,
        merge=lambda parts, spec, n: {
            "answers": _merge_expected_knn(parts, int(spec.k))
        },
    ),
    # The Monte-Carlo rounds sample among the NN!=0 survivors (a
    # realized nearest neighbor is always one), so they prune as the
    # nonzero pass does.
    Method(
        "mc_pnn", PROBABILITIES, _check_rounds, _answer_mc_pnn,
        PASSES["nonzero_nn_many"],
        seeded=True,
    ),
)}
