"""The write-ahead log's two absolute cost bars, as a hard-failing check.

* **Ingest overhead** — 8 batches of 256 discrete points inserted into a
  plain in-memory engine and into ``Engine.open_durable`` under
  ``fsync="interval"`` (base: 300 discrete points, k=3).  The durable
  run may take at most 25% longer.  The overhead is the median of 9
  durable/plain time ratios, each from one back-to-back pair of runs,
  alternating which side runs first: a best-of-2 of each side swung
  from -30% to +82% on unchanged code on a shared 2-CPU host.
* **Replay throughput** — recovery of a log holding 4,000 mutation
  records (1-point inserts, a remove every 500th record) over the base
  snapshot must run at >= 10,000 records/s and replay every record
  (best of two recoveries).

The log's answer identity, compaction and kill -9 survival are tests
(``tests/test_wal.py``, ``tests/test_wal_chaos.py``).  Run
``python benchmarks/durability_bars.py``: it prints one line per bar and
exits 1 when a bar fails.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro import Engine, QuerySpec, config, io as repro_io
from repro.constructions import random_discrete_points, random_queries
from repro.resilience import wal as walmod

BASE_N, K = 300, 3
BATCHES, BATCH_POINTS = 8, 256
RECORDS, REMOVE_EVERY = 4000, 500
PAIRS = 9
REPS = 2
MAX_OVERHEAD = 0.25
MIN_REPLAY_RATE = 10_000.0

POINTS = random_discrete_points(BASE_N, K, seed=1001)
INSERTS = [
    random_discrete_points(BATCH_POINTS, K, seed=1010 + j) for j in range(BATCHES)
]
Q = np.asarray(random_queries(64, seed=1002, bbox=(0, 0, 100, 100)))
SPEC = QuerySpec(method="expected_nn")


def _ingest(engine: Engine) -> float:
    """Seconds to insert every batch once the column store is built."""
    engine.query(Q, SPEC)
    t0 = time.perf_counter()
    for batch in INSERTS:
        engine.insert(batch)
    return time.perf_counter() - t0


def ingest_durable() -> float:
    tmp = tempfile.mkdtemp(prefix="durability-bars-")
    try:
        with config.durability(
            fsync="interval",
            fsync_interval_s=0.05,
            compact_bytes=1 << 62,
            compact_records=1 << 62,
        ):
            engine = Engine.open_durable(os.path.join(tmp, "d"), POINTS)
            try:
                return _ingest(engine)
            finally:
                engine.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def ingest_overhead() -> tuple:
    """``(median durable/plain ratio - 1, median plain seconds, median
    durable seconds)`` over ``PAIRS`` back-to-back pairs, alternating
    which side runs first."""
    plain, durable = [], []
    for i in range(PAIRS):
        if i % 2:
            durable.append(ingest_durable())
            plain.append(_ingest(Engine(POINTS)))
        else:
            plain.append(_ingest(Engine(POINTS)))
            durable.append(ingest_durable())
    overhead = float(np.median(np.divide(durable, plain))) - 1.0
    return overhead, float(np.median(plain)), float(np.median(durable))


def replay() -> tuple:
    """``(records replayed, best recovery seconds, whether every
    recovery reached the log's end state)`` over a synthesised log of
    ``RECORDS`` frames (the engine writes identical frames)."""
    tmp = tempfile.mkdtemp(prefix="durability-bars-replay-")
    ddir = os.path.join(tmp, "d")
    try:
        seeded = Engine.open_durable(ddir, POINTS)
        gen = seeded.generation
        seeded.close()
        with config.durability(fsync="off"):
            log = walmod.WriteAheadLog.open(
                os.path.join(ddir, Engine.WAL_NAME),
                base_generation=gen,
                base_n=BASE_N,
            )
            live = BASE_N
            for r in range(RECORDS):
                gen += 1
                if r % REMOVE_EVERY == REMOVE_EVERY - 1 and live > 1:
                    log.append("remove", {"ids": [0]}, generation=gen)
                    live -= 1
                else:
                    p = random_discrete_points(1, 2, seed=5000 + r)[0]
                    log.append(
                        "insert",
                        {"points": repro_io.points_to_wire([p])},
                        generation=gen,
                    )
                    live += 1
            log.close()
        best, replayed, intact = float("inf"), 0, True
        for _ in range(REPS):
            t0 = time.perf_counter()
            engine = Engine.open_durable(ddir)
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best, replayed = elapsed, engine.stats()["wal"]["replayed"]
            intact &= len(engine) == live and engine.generation == gen
            engine.close()
        return replayed, best, intact
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    _ingest(Engine(POINTS))  # warm NumPy and the column summaries
    overhead, t_plain, t_durable = ingest_overhead()
    replayed, t_replay, intact = replay()
    rate = replayed / max(t_replay, 1e-9)

    bars = [
        (
            f"ingest overhead (fsync=interval, median of {PAIRS} pairs): "
            f"plain {t_plain:.3f} s, durable {t_durable:.3f} s, "
            f"{overhead * 100:+.1f}% (bar <= {MAX_OVERHEAD * 100:.0f}%)",
            overhead <= MAX_OVERHEAD,
        ),
        (
            f"replay: {replayed} records in {t_replay:.3f} s, "
            f"{rate:,.0f} records/s (bar >= {MIN_REPLAY_RATE:,.0f})",
            intact and replayed == RECORDS and rate >= MIN_REPLAY_RATE,
        ),
    ]
    for line, ok in bars:
        print(f"{'ok  ' if ok else 'FAIL'} {line}")
    return 0 if all(ok for _, ok in bars) else 1


if __name__ == "__main__":
    sys.exit(main())
