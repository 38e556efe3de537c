"""``durable-ingest``: a sliding window on a durable tenant, read after each write.

One ``Engine.open_durable`` tenant on a disk-backed directory keeps a
window of 2·10^4 discrete points under the default durability policy
(``fsync="always"``, compaction bounds far above what a run writes).
Each tick inserts the 32 newest points and removes the 32 oldest, so n
stays fixed, then reads one fresh m=64 ``nonzero`` batch.  Every write
invalidates the dual tree and the eval cache, so every read pays the
index rebuilds that warm workloads skip.  Each cold set-up recovers a
fresh copy of a prepared directory (a snapshot plus a WAL of
``prep_ticks`` window updates); the copy is made before its clock starts.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro import Engine, QuerySpec

import common
from common import ColdSetups, Outcome, Phases, Rows, Sizes, reason_of, row_answers
from metrics import add_counters, counter_delta, engine_counters, layer_metrics
from tracer import Attribution, Tracer

READ = QuerySpec("nonzero")
PROBE_SPECS = (QuerySpec("nonzero"), QuerySpec("expected_nn"))


def arrivals(seed: int, step: int) -> Iterator[list]:
    """Endless stream of ``step``-point batches of new discrete points."""
    chunk = 0
    while True:
        pts = common.discrete_points(step * 64, seed, f"ingest-{chunk}")
        chunk += 1
        for i in range(0, len(pts), step):
            yield pts[i:i + step]


def tick(engine: Engine, new: list, step: int) -> None:
    engine.insert(new)
    engine.remove(np.arange(step))


def prepare(directory: str, seed: int, sizes: Sizes, stream: Iterator[list]) -> None:
    window = common.discrete_points(sizes.n_big, seed, "ingest-window")
    engine = Engine.open_durable(directory, window)
    try:
        for _ in range(sizes.prep_ticks):
            tick(engine, next(stream), sizes.window_step)
    finally:
        engine.close()


def run(seed: int, seconds: float, tracer: Optional[Tracer], sizes: Sizes = common.FULL) -> Outcome:
    os.makedirs(common.RUNS_DIR, exist_ok=True)
    home = os.path.join(common.RUNS_DIR, f"durable-{os.getpid()}-{time.monotonic_ns()}")
    try:
        return _run(home, seed, seconds, tracer, sizes)
    finally:
        shutil.rmtree(home, ignore_errors=True)


def _run(home: str, seed: int, seconds: float, tracer: Optional[Tracer], sizes: Sizes) -> Outcome:
    stream = arrivals(seed, sizes.window_step)
    rows = Rows(seed, "ingest-rows")
    phases = Phases()
    prepared = os.path.join(home, "prepared")
    prepare(prepared, seed, sizes, stream)

    # Cold set-up: recovery (open_durable) plus the first read, on a fresh
    # copy of the prepared directory made before the clock starts.
    def cold(directory, Q):
        engine = Engine.open_durable(directory)
        try:
            engine.query(Q, READ)
        except BaseException:
            engine.close()
            raise
        return engine

    def fresh_copy(rep):
        live = os.path.join(home, f"live-{rep}")
        shutil.copytree(prepared, live)
        return live

    # The timed loop runs in one segment after each recovery, on the
    # recovered engine; the last one is kept for the recovery check.
    setups = ColdSetups(phases, 2)
    writes: List[float] = []
    reads: List[float] = []
    ticks: List[float] = []
    # The planner (and its counters) is rebuilt each generation, so
    # read-side counters are taken around each read, off the clock; WAL
    # counters and index builds over each whole segment.
    counters = engine_counters([])
    per_segment = engine_counters([])
    windows = []
    written = 0
    for rep in range(sizes.recoveries):
        engine = setups.once(cold, fresh_copy(rep), rows.take(sizes.read_m))
        if engine is None:
            raise RuntimeError("durable-ingest: a recovery failed")
        seg_before = engine_counters([engine]) if tracer else None
        seg_t0 = time.perf_counter()
        deadline = seg_t0 + seconds / sizes.recoveries
        while time.perf_counter() < deadline:
            new = next(stream)
            Q = rows.take(sizes.read_m)
            t0 = time.perf_counter()
            try:
                tick(engine, new, sizes.window_step)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                phases.fail("run", reason_of(exc))
                continue
            t1 = time.perf_counter()
            written += len(new)
            phases.ok("run")
            if len(engine) != sizes.n_big:
                phases.wrong("run")
            before = engine_counters([engine]) if tracer else None
            t2 = time.perf_counter()
            try:
                engine.query(Q, READ)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                phases.fail("run", reason_of(exc))
                continue
            t3 = time.perf_counter()
            phases.ok("run")
            if tracer is not None:
                add_counters(counters, counter_delta(before, engine_counters([engine])))
            writes.append(t1 - t0)
            reads.append(t3 - t2)
            ticks.append(t1 - t0 + t3 - t2)
        windows.append((seg_t0, time.perf_counter()))
        if tracer is not None:
            add_counters(per_segment, counter_delta(seg_before, engine_counters([engine])))
        if rep < sizes.recoveries - 1:
            engine.close()
            del engine  # so the next recovery does not raise the memory peak
    for key in ("fsyncs", "fsync_s", "wal_bytes", "registry_builds"):
        counters[key] = per_segment[key]

    peak_mb = common.peak_rss_mb()  # the workload is done; only checks follow

    # The live engine's state and probe answers, for the recovery check;
    # then it goes, so the reopened tenant is the only engine held.
    probe = Rows(seed, "ingest-probe").take(sizes.read_m)
    live_dir, live_state = engine.durable_dir, (len(engine), engine.generation)
    live_answers = [row_answers(engine.query(probe, s), range(sizes.read_m)) for s in PROBE_SPECS]
    engine.close()
    del engine

    # Recovery check: reopen and compare with the live engine.
    recovery_error = None
    try:
        recovered = Engine.open_durable(live_dir)
        try:
            same = (len(recovered), recovered.generation) == live_state and all(
                row_answers(recovered.query(probe, s), range(sizes.read_m)) == want
                for s, want in zip(PROBE_SPECS, live_answers)
            )
        finally:
            recovered.close()
    except Exception as exc:  # noqa: BLE001 - a failed recovery is a wrong answer
        recovery_error = reason_of(exc)
        same = False
    if not same:
        phases.wrong("run", 2 * len(ticks))

    summary = common.latency_summary(ticks)
    loop_s = sum(t1 - t0 for t0, t1 in windows)
    e2e = {
        "setup_s": setups.median(),
        "p50_ms": summary["p50_ms"],
        "p90_ms": summary["p90_ms"],
        "rows_per_s": sizes.read_m * len(reads) / loop_s,
        "peak_rss_mb": peak_mb,
    }
    breakdown = {
        "engine.write_p50_ms": common.pct(writes, 50) * 1000.0,
        "engine.read_p50_ms": common.pct(reads, 50) * 1000.0,
    }
    layers: Dict[str, float] = {}
    if tracer is not None:
        layers = layer_metrics(
            Attribution(tracer.within(windows)), len(ticks), counters,
            setup=Attribution(tracer.within(setups.windows)),
            setups=len(setups.samples), points_written=written,
        )
    details = {
        "latency": summary, "ticks": len(ticks), "setup_samples_s": setups.samples, "loop_s": loop_s,
        "wal_records_prepared": 2 * sizes.prep_ticks,
        "recovered_matches_live": same, "recovery_error": recovery_error,
    }
    return Outcome(e2e, breakdown, layers, phases, details)
