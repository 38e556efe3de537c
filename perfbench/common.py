"""Shared pieces of the benchmark: inputs, accounting, statistics, environment.

Every workload module builds its inputs here from the run seed, counts
its operations in a :class:`Phases` ledger, and summarises latencies
with :func:`pct`.  Nothing here starts threads or touches files at
import time.
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import os
import platform
import resource
import sys
import time
import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import QuerySpec
from repro.constructions import (
    cluster_centers,
    clustered_discrete_points,
    clustered_disk_points,
    clustered_queries,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch outputs (span files, durable directories); ignored by git.
RUNS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "runs")

#: Seed of the cluster anchors.  The anchors are part of the workload
#: definition, like a city map: with anchors drawn from the run seed,
#: prune survivors per query (a count, free of timing noise) ranged by
#: 38% over six seeds, against 4% with these anchors fixed — that
#: measured where 20 clusters happen to overlap, not the code.
#: ``--seed`` draws every object and every query row.
LAYOUT_SEED = 1
CLUSTERS = 20
BOX = 100.0


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (the smoke test shrinks them)."""

    n_big: int = 20_000  # the 2·10^4 datasets
    n_small: int = 2_000  # the three small tenant-storm tenants
    batch_m: int = 256  # rows per library batch
    burst: int = 32  # tenant-storm requests per burst
    window_step: int = 32  # durable-ingest points in and out per tick
    read_m: int = 64  # durable-ingest rows per read
    prep_ticks: int = 100  # window updates in the prepared WAL (2 records each)
    setup_reps: int = 5  # cold set-ups per run; setup_s is their median
    recoveries: int = 3  # the same for durable-ingest, whose set-up takes seconds


FULL = Sizes()


def subseed(seed: int, label: str) -> int:
    """A stable per-purpose seed (``hash()`` of a str is salted per process)."""
    return zlib.crc32(f"{seed}:{label}".encode()) & 0x7FFFFFFF


def centers() -> list:
    return cluster_centers(CLUSTERS, LAYOUT_SEED, box=BOX)


def disk_points(n: int, seed: int, label: str) -> list:
    return clustered_disk_points(n, centers=centers(), seed=subseed(seed, label))


def discrete_points(n: int, seed: int, label: str) -> list:
    return clustered_discrete_points(
        n, k=4, centers=centers(), seed=subseed(seed, label)
    )


class Rows:
    """A stream of fresh clustered query rows, reproducible from its seed."""

    CHUNK = 1024

    def __init__(self, seed: int, label: str):
        self._seed = subseed(seed, label)
        self._chunks = 0
        self._buf = np.empty((0, 2))

    def take(self, m: int) -> np.ndarray:
        while self._buf.shape[0] < m:
            fresh = clustered_queries(
                self.CHUNK,
                centers=centers(),
                seed=subseed(self._seed, str(self._chunks)),
            )
            self._chunks += 1
            self._buf = np.concatenate([self._buf, np.asarray(fresh)])
        out, self._buf = self._buf[:m], self._buf[m:]
        return out


# -- operation accounting -----------------------------------------------------

class Phases:
    """Operations sent, succeeded and failed, per phase, with failure reasons.

    A wrong answer found by a check is charged to the phase that sent the
    operation, so ``failed`` counts every operation that did not return a
    right answer.
    """

    def __init__(self):
        self.counts: Dict[str, Dict[str, int]] = {}
        self.reasons: Dict[str, int] = {}

    def _row(self, phase: str) -> Dict[str, int]:
        return self.counts.setdefault(phase, {"sent": 0, "ok": 0, "failed": 0})

    def ok(self, phase: str, n: int = 1) -> None:
        row = self._row(phase)
        row["sent"] += n
        row["ok"] += n

    def fail(self, phase: str, reason: str, n: int = 1) -> None:
        row = self._row(phase)
        row["sent"] += n
        row["failed"] += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    def wrong(self, phase: str, n: int = 1) -> None:
        """Turn ``n`` operations already counted as ok into failures."""
        row = self._row(phase)
        n = min(n, row["ok"])
        row["ok"] -= n
        row["failed"] += n
        self.reasons["mismatch"] = self.reasons.get("mismatch", 0) + n

    def merge(self, other: "Phases", prefix: str) -> None:
        for phase, row in other.counts.items():
            mine = self._row(f"{prefix}{phase}")
            for key, value in row.items():
                mine[key] += value
        for reason, n in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + n

    @property
    def attempted(self) -> int:
        return sum(row["sent"] for row in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(row["failed"] for row in self.counts.values())


class Failed(Exception):
    """An operation that returned without an answer (the reason is given)."""


def reason_of(exc: BaseException) -> str:
    if isinstance(exc, Failed):
        return str(exc)
    return f"exception:{type(exc).__name__}"


class ColdSetups:
    """Timed cold set-ups, spread over a run.

    The closed-loop workloads alternate cold set-ups with equal segments
    of the timed loop, each segment using the service its set-up made;
    ``tenant-storm`` runs its open loop after the first set-up and the
    rest after the loop.  The shared host's speed swings by a third
    within seconds, so spreading the samples over the whole run averages
    more of those swings than one stretch would.  ``ops`` is the number
    of operations one set-up sends.
    """

    def __init__(self, phases: Phases, ops: int):
        self.phases = phases
        self.ops = ops
        self.samples: List[float] = []
        #: ``(start, end)`` of every set-up, for span attribution.
        self.windows: List[tuple] = []

    def once(self, make, *inputs):
        """Time ``make(*inputs)``; its result, or ``None`` when it failed.

        Garbage left by an earlier, torn-down service is collected first,
        off the clock, so it neither pauses this set-up nor adds to the
        memory peak.
        """
        gc.collect()
        t0 = time.perf_counter()
        try:
            handle = make(*inputs)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.phases.fail("setup", reason_of(exc), self.ops)
            return None
        t1 = time.perf_counter()
        self.windows.append((t0, t1))
        self.samples.append(t1 - t0)
        self.phases.ok("setup", self.ops)
        return handle

    def median(self) -> float:
        return float(np.median(self.samples)) if self.samples else float("nan")


# -- answers ------------------------------------------------------------------

def exact_spec(spec: QuerySpec) -> QuerySpec:
    return dataclasses.replace(spec, tier="exact")


def row_answers(result, rows: Sequence[int]) -> list:
    """Per-row ``(answer, value)`` pairs of a result, comparable with ``==``.

    Floats are compared bit for bit: expected-distance values by their
    IEEE bytes, probabilities inside the answer dicts by ``==``.
    """
    out = []
    for r in rows:
        answer = result.answers[r]
        if isinstance(answer, np.ndarray):
            answer = answer.tolist()
        elif isinstance(answer, np.integer):
            answer = int(answer)
        value = None
        if result.values is not None:
            value = np.float64(result.values[r]).tobytes()
        out.append((answer, value))
    return out


# -- statistics ---------------------------------------------------------------

def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); ``nan`` when empty."""
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- environment record -------------------------------------------------------

_FS_MAGIC = {
    0xEF53: "ext2/3/4",
    0x01021994: "tmpfs",
    0x794C7630: "overlayfs",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x6969: "nfs",
    0x65735546: "fuse",
    0x858458F6: "ramfs",
    0x2FC12FC1: "zfs",
}


def fs_type(path: str) -> str:
    """Filesystem type of ``path`` (or its nearest existing ancestor)
    from ``statfs(2)``'s ``f_type``."""
    path = os.path.abspath(path)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        buf = ctypes.create_string_buffer(256)
        if libc.statfs(os.fsencode(path), buf) != 0:
            return "unknown"
        magic = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    except (OSError, AttributeError):
        return "unknown"
    return _FS_MAGIC.get(magic, hex(magic))


def git_commit(root: str = ROOT) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root: str = ROOT) -> str:
    """CRC32 over ``src/`` — identifies the code when there is no ``.git``."""
    crc = 0
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                crc = zlib.crc32(os.path.relpath(path, src).encode(), crc)
                with open(path, "rb") as f:
                    crc = zlib.crc32(f.read(), crc)
    return f"{crc:08x}"


def environment(seed: int) -> Dict[str, object]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(),
        "source_crc32": source_digest(),
        # Durable directories are created under RUNS_DIR.
        "durable_fs": fs_type(RUNS_DIR),
    }


@dataclasses.dataclass
class Outcome:
    """What one workload pass returns to ``run.py``."""

    e2e: Dict[str, float]
    #: Workload-level breakdowns reported with the per-layer metrics but
    #: taken from the untraced pass (per-method medians and the like).
    breakdown: Dict[str, float]
    #: Per-layer metrics; filled only when a tracer was installed.
    layers: Dict[str, float]
    phases: Phases
    details: Dict[str, object]


def latency_summary(samples_s: List[float]) -> Dict[str, float]:
    """Percentiles in ms plus the sample count, for the report."""
    ms = [s * 1000.0 for s in samples_s]
    out = {f"p{q}_ms": pct(ms, q) for q in (10, 25, 50, 75, 90, 95, 99)}
    out["samples"] = len(ms)
    return out
