"""``batch``: library use — a closed loop of five pruned-tier batches.

One caller cycles over two default engines, ``disk`` (2·10^4 uniform
disks) and ``discrete`` (2·10^4 discrete points, k=4), running per
cycle one batch of ``m`` fresh clustered rows for each of: disk
``expected_nn``, disk ``expected_knn`` (k=8), disk ``nonzero``,
discrete ``threshold`` (tau=0.2) and discrete ``mc_pnn`` (s=64, fixed
seed).  Prune, evaluate and reduce do almost all the work; the service
and WAL layers do none.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

import numpy as np

from repro import Engine, QuerySpec

import common
from common import ColdSetups, Outcome, Phases, Rows, Sizes, exact_spec, reason_of, row_answers
from metrics import add_counters, counter_delta, engine_counters, layer_metrics
from tracer import Attribution, Tracer

#: (engine, metric stem, spec) in cycle order.
SPECS = [
    ("disk", "expected_nn", QuerySpec("expected_nn")),
    ("disk", "knn", QuerySpec("expected_knn", k=8)),
    ("disk", "nonzero", QuerySpec("nonzero")),
    ("discrete", "threshold", QuerySpec("threshold", tau=0.2)),
    ("discrete", "mc_pnn", QuerySpec("mc_pnn", s=64, seed=12345)),
]
#: Rows per method re-answered on the exact tier, which takes about a
#: second per row at n=2·10^4.
CHECK_ROWS = 2


def inputs(seed: int, sizes: Sizes) -> Dict[str, list]:
    return {
        "disk": common.disk_points(sizes.n_big, seed, "batch-disk"),
        "discrete": common.discrete_points(sizes.n_big, seed, "batch-discrete"),
    }


def run(seed: int, seconds: float, tracer: Optional[Tracer], sizes: Sizes = common.FULL) -> Outcome:
    points = inputs(seed, sizes)
    rows = Rows(seed, "batch-rows")
    phases = Phases()

    # Cold set-up: empty engines to the first answer (one row) of each kind.
    def cold(firsts):
        engines = {name: Engine(pts) for name, pts in points.items()}
        for (name, _, spec), Q in zip(SPECS, firsts):
            engines[name].query(Q, spec)
        return engines

    # The timed closed loop runs in whole cycles, in one segment after each
    # cold set-up, on that set-up's engines.  A cycle's time is the sum of
    # its five batch latencies, so it moves with every method.
    setups = ColdSetups(phases, len(SPECS))
    lat: Dict[str, List[float]] = {stem: [] for _, stem, _ in SPECS}
    cycles: List[float] = []
    # One batch per method is kept for the answer check, drawn uniformly
    # over the run (reservoir of one), so the results held stay small.
    pick = random.Random(common.subseed(seed, "batch-check"))
    kept: Dict[str, tuple] = {}
    counters = engine_counters([])
    windows = []
    for _ in range(sizes.setup_reps):
        engines = setups.once(cold, [rows.take(1) for _ in SPECS])
        if engines is None:
            raise RuntimeError("batch: a cold set-up failed")
        before = engine_counters(engines.values()) if tracer else None
        seg_t0 = time.perf_counter()
        deadline = seg_t0 + seconds / sizes.setup_reps
        while True:
            cycle, whole = 0.0, True
            for name, stem, spec in SPECS:
                Q = rows.take(sizes.batch_m)
                t0 = time.perf_counter()
                try:
                    result = engines[name].query(Q, spec)
                except Exception as exc:  # noqa: BLE001 - counted, run continues
                    phases.fail("run", reason_of(exc))
                    whole = False
                    continue
                elapsed = time.perf_counter() - t0
                cycle += elapsed
                lat[stem].append(elapsed)
                phases.ok("run")
                if pick.randrange(len(lat[stem])) == 0:
                    kept[stem] = (Q, result)
            if whole:
                cycles.append(cycle)
            if time.perf_counter() >= deadline:
                break
        windows.append((seg_t0, time.perf_counter()))
        if tracer is not None:
            add_counters(counters, counter_delta(before, engine_counters(engines.values())))
        del engines  # so the next set-up does not raise the memory peak
    peak_mb = common.peak_rss_mb()  # before the check builds exact-tier indexes

    # Answer check: sampled rows re-answered on the exact tier of fresh
    # engines, bit for bit.
    oracles = {name: Engine(pts, result_cache_size=0) for name, pts in points.items()}
    checked = 0
    for name, stem, spec in SPECS:
        if stem not in kept:
            continue
        Q, result = kept[stem]
        idx = sorted(pick.sample(range(Q.shape[0]), min(CHECK_ROWS, Q.shape[0])))
        oracle = oracles[name].query(Q[idx], exact_spec(spec))
        if row_answers(result, idx) != row_answers(oracle, range(len(idx))):
            phases.wrong("run")
        checked += len(idx)
    del oracles, kept

    medians = {stem: float(np.median(v)) * 1000.0 if v else float("nan") for stem, v in lat.items()}
    summary = common.latency_summary(cycles)
    e2e = {
        "setup_s": setups.median(),
        "p50_ms": summary["p50_ms"],
        "p90_ms": summary["p90_ms"],
        "rows_per_s": len(SPECS) * sizes.batch_m / (sum(medians.values()) / 1000.0),
        "peak_rss_mb": peak_mb,
    }
    layers: Dict[str, float] = {}
    if tracer is not None:
        batches = sum(len(v) for v in lat.values())
        spans = Attribution(tracer.within(windows))
        layers = layer_metrics(spans, batches, counters)
    details = {
        "cycle_latency": summary,
        "batches_per_method": {stem: len(v) for stem, v in lat.items()},
        "method_median_ms": medians,
        "setup_samples_s": setups.samples,
        "rows_checked_exact": checked,
        "loop_s": sum(t1 - t0 for t0, t1 in windows),
    }
    breakdown = {f"engine.{stem}_ms": v for stem, v in medians.items()}
    return Outcome(e2e, breakdown, layers, phases, details)
