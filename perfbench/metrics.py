"""The metric catalogue and the per-layer attribution shared by all workloads.

``E2E`` and ``PER_LAYER`` are the ``(name, unit)`` pairs of the
``end_to_end`` and ``per_layer`` lists in ``BENCHMARK.json``; every run
prints every name of the list its mode reports.  A layer a workload
does not use reads 0 there.  Unless a definition says otherwise, a
per-layer time or count is per operation of the timed loop (a batch, a
request or a window tick) and comes from the traced run.  NOTES.md
lists what each metric should move.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

from common import ROOT
from tracer import BUILDS, EVALS, PLANNER, Attribution

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DECLARED = json.load(_f)
E2E = [(m["name"], m["unit"]) for m in _DECLARED["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _DECLARED["per_layer"]]
UNITS = dict(E2E + PER_LAYER)

_COUNTERS = (
    "registry_builds", "node_pairs", "survivors", "refined_pairs",
    "pairs_disk", "pairs_discrete", "fsyncs", "fsync_s", "wal_bytes",
)


def engine_counters(engines: Iterable) -> Dict[str, float]:
    """Cumulative public counters of ``Engine.stats()``, summed over engines."""
    out = dict.fromkeys(_COUNTERS, 0.0)
    for engine in engines:
        stats = engine.stats()
        dual = stats.get("dual_tree") or {}
        pairs = (stats.get("evaluators") or {}).get("pairs_by_tag") or {}
        wal = stats.get("wal") or {}
        out["registry_builds"] += stats["registry_builds"]
        out["node_pairs"] += dual.get("node_pairs_visited", 0.0)
        out["survivors"] += dual.get("survivors", 0.0)
        out["refined_pairs"] += dual.get("refined_pairs", 0.0)
        out["pairs_disk"] += pairs.get("disk", 0)
        out["pairs_discrete"] += pairs.get("discrete", 0)
        out["fsyncs"] += wal.get("fsyncs", 0)
        out["fsync_s"] += wal.get("fsync_seconds", 0.0)
        out["wal_bytes"] += wal.get("bytes_written", 0)
    return out


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in _COUNTERS}


def add_counters(total: Dict[str, float], delta: Dict[str, float]) -> None:
    for k in _COUNTERS:
        total[k] = total.get(k, 0.0) + delta[k]


def queue_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Change of ``RequestQueue.counters`` between two readings."""
    return {k: after[k] - before[k] for k in before}


def queue_layers(delta: Dict[str, int]) -> Dict[str, float]:
    """The queue's batching metrics from a :func:`queue_delta`."""
    return {
        "queue.batch_requests": _div(delta["completed"], delta["batches"]),
        "queue.batches": float(delta["batches"]),
        "queue.rejected": float(delta["rejected"]),
    }


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    loop: Attribution,
    ops: int,
    counters: Dict[str, float],
    setup: Optional[Attribution] = None,
    setups: int = 0,
    points_written: int = 0,
) -> Dict[str, float]:
    """Every per-layer metric the spans and counters give, zero elsewhere.

    ``loop`` holds the spans of the timed loop, ``ops`` its operation
    count and ``counters`` the counter deltas over it; ``setup`` holds
    the spans of ``setups`` cold set-ups (recovery metrics).
    """
    ms = 1000.0
    per = lambda seconds: _div(seconds * ms, ops)  # noqa: E731
    disk_pairs = [s for s in loop.select(EVALS[0]) if s.flag]
    out = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    out.update({
        "wire.decode_ms": per(loop.total("wire.decode_request")),
        "wire.encode_ms": per(loop.total("wire.encode_result")),
        "engine.query_ms": per(loop.total("engine.query")),
        "engine.self_ms": per(loop.self_time("engine.query")),
        "engine.index_builds": _div(counters["registry_builds"], ops),
        "engine.build_ms": per(loop.outermost(*BUILDS)),
        "dual_tree.prune_ms": per(loop.total("dual_tree.candidates")),
        "dual_tree.build_ms": per(loop.total("build.object_tree")),
        "dual_tree.node_pairs": _div(counters["node_pairs"], ops),
        "dual_tree.survivors": _div(counters["survivors"], ops),
        "dual_tree.refine_yield": _div(counters["survivors"], counters["refined_pairs"]),
        "evaluators.eval_ms": per(loop.total(*EVALS)),
        "evaluators.pairs_disk": _div(counters["pairs_disk"], ops),
        "evaluators.pairs_discrete": _div(counters["pairs_discrete"], ops),
        "evaluators.us_per_pair_disk": _div(
            sum(s.dur for s in disk_pairs) * 1e6, sum(s.count for s in disk_pairs)
        ),
        "planner.self_ms": per(loop.self_time(*PLANNER)),
        "quantification.sweep_ms": per(loop.total("quantification.sweep")),
        "monte_carlo.query_ms": per(loop.self_time("monte_carlo.query_many")),
        "columns.update_ms": per(loop.total("columns.extend", "columns.shrink")),
        "io.encode_ms": per(loop.total("io.points_to_wire")),
        "wal.append_ms": per(loop.total("wal.append")),
        "wal.fsyncs": _div(counters["fsyncs"], ops),
        "wal.fsync_ms": per(counters["fsync_s"]),
        "wal.bytes_per_point": _div(counters["wal_bytes"], points_written),
    })
    if setup is not None and setups:
        load = setup.total("snapshot.load_engine")
        out["snapshot.load_ms"] = load * ms / setups
        out["wal.replay_ms"] = (setup.total("engine.open_durable") - load) * ms / setups
        out["io.decode_ms"] = setup.total("io.points_from_wire") * ms / setups
    return out


def check_complete(metrics: Dict[str, float], names: List[str]) -> None:
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
