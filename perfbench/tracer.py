"""Spans recorded from outside the program, around each layer's entry points.

:meth:`Tracer.install` replaces each entry point with a wrapper at the
name its caller looks up: module functions on the module the caller
reads them from, methods and constructors (``__init__``) on their class.
A wrapper records one span (name, start, end, parent, request id,
thread, optional count) and calls the original.  Spans stay in memory;
:meth:`Tracer.dump` writes them out when the run ends.  Spans inside
the program are not this benchmark's job.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

import repro.io
from repro.core import evaluators, planner
from repro.core.dual_tree import EnvelopeObjectTree
from repro.core.monte_carlo import MonteCarloPNN
from repro.engine import Engine
from repro.resilience import snapshot
from repro.resilience.wal import WriteAheadLog
from repro.service import wire
from repro.service.queue import RequestQueue
from repro.uncertain.columns import TAG_DISK, ModelColumns

#: Span names of the constructors whose time is ``engine.build_ms``.
BUILDS = ("build.planner", "build.columns", "build.object_tree", "build.eval_cache")
#: Survivor-evaluation entry points (``evaluators.eval_ms``).
EVALS = (
    "evaluators.expected_distance_pairs",
    "evaluators.support_bounds_pairs",
    "evaluators.gather_sweep_entries",
)
PLANNER = (
    "planner.expected_nn_many",
    "planner.nonzero_nn_many",
    "planner.expected_knn_many",
    "planner.threshold_nn_exact_many",
)


def _pairs_count(args, kwargs) -> Tuple[int, bool]:
    """(pairs, all pairs on disks) of an evaluator call ``(cache, Q, rows, cols)``."""
    cache, cols = args[0], np.asarray(args[3])
    return int(cols.shape[0]), bool(np.all(cache.columns.tags[cols] == TAG_DISK))


def _targets():
    """``(owner, attribute, span name, kind, annotate)`` for every entry point."""
    return [
        (Engine, "query", "engine.query", "method", None),
        (Engine, "insert", "engine.insert", "method", None),
        (Engine, "remove", "engine.remove", "method", None),
        (Engine, "open_durable", "engine.open_durable", "classmethod", None),
        (planner.QueryPlanner, "__init__", "build.planner", "method", None),
        (ModelColumns, "__init__", "build.columns", "method", None),
        (EnvelopeObjectTree, "__init__", "build.object_tree", "method", None),
        (evaluators.EvalCache, "__init__", "build.eval_cache", "method", None),
        *[
            (planner.QueryPlanner, name.split(".")[1], name, "method", None)
            for name in PLANNER
        ],
        (planner, "dual_tree_candidates", "dual_tree.candidates", "function", None),
        (evaluators, "expected_distance_pairs", EVALS[0], "function", _pairs_count),
        (evaluators, "support_bounds_pairs", EVALS[1], "function", _pairs_count),
        (evaluators, "gather_sweep_entries", EVALS[2], "function", None),
        (planner, "sweep_quantification", "quantification.sweep", "function", None),
        (MonteCarloPNN, "query_many", "monte_carlo.query_many", "method", None),
        (ModelColumns, "extend", "columns.extend", "method", None),
        (ModelColumns, "shrink", "columns.shrink", "method", None),
        (wire, "decode_request", "wire.decode_request", "function", None),
        (wire, "encode_result", "wire.encode_result", "function", None),
        (RequestQueue, "submit", "queue.submit", "method", None),
        (WriteAheadLog, "append", "wal.append", "method", None),
        (repro.io, "points_to_wire", "io.points_to_wire", "function", None),
        (repro.io, "points_from_wire", "io.points_from_wire", "function", None),
        (snapshot, "load_engine", "snapshot.load_engine", "function", None),
    ]


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    t0: float
    t1: float
    request: Optional[int]
    thread: int
    count: int  # pairs, for evaluator calls
    flag: bool  # every pair on a disk, for evaluator calls

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        #: Request id stamped on every span; set by a workload with one
        #: request in flight.
        self.request: Optional[int] = None
        #: ``(request id, span id)`` pairs tied from outside (queue hooks).
        self.ties: List[Tuple[int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _call(self, name: str, fn: Callable, args, kwargs, annotate):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        count, flag = annotate(args, kwargs) if annotate else (0, False)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, t0, t1, self.request,
                     threading.get_ident(), count, flag)
            )
            if not stack:
                local.last_root = sid

    def last_root(self) -> Optional[int]:
        """Id of the last outermost span this thread closed."""
        return getattr(self._local, "last_root", None)

    def tie(self, request: int, span_id: Optional[int]) -> None:
        if span_id is not None:
            self.ties.append((request, span_id))

    # -- installation -------------------------------------------------------
    def install(self) -> "Tracer":
        for owner, attr, name, kind, annotate in _targets():
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrapper(name, raw, kind, annotate))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrapper(self, name, raw, kind, annotate):
        fn = raw.__func__ if kind == "classmethod" else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, annotate)

        return classmethod(wrapper) if kind == "classmethod" else wrapper

    # -- analysis -----------------------------------------------------------
    def within(self, windows: Iterable[Tuple[float, float]]) -> List[Span]:
        """Spans that start and end inside one of the ``(t0, t1)`` windows."""
        return [s for t0, t1 in windows for s in self.spans if t0 <= s.t0 and s.t1 <= t1]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict()) + "\n")
            for request, span_id in self.ties:
                f.write(json.dumps({"tie": [request, span_id]}) + "\n")


class Attribution:
    """Totals and self times by span name over one window of spans.

    A span's self time is its duration minus its direct children's.
    """

    def __init__(self, spans: Iterable[Span]):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        children: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.dur
        self._self = {s.id: s.dur - children.get(s.id, 0.0) for s in self.spans}

    def total(self, *names: str) -> float:
        return sum(s.dur for s in self.spans if s.name in names)

    def self_time(self, *names: str) -> float:
        return sum(self._self[s.id] for s in self.spans if s.name in names)

    def outermost(self, *names: str) -> float:
        """Total of the named spans not nested inside another named span."""
        named = set(names)
        out = 0.0
        for s in self.spans:
            if s.name not in named:
                continue
            p = self.by_id.get(s.parent)
            while p is not None and p.name not in named:
                p = self.by_id.get(p.parent)
            if p is None:
                out += s.dur
        return out

    def select(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]
