"""Smoke test of the benchmark at reduced sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload must report every metric its mode names, with its unit,
and a wrong answer injected into the serving path must be counted as a
failed operation.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import common  # noqa: E402
import run  # noqa: E402
from metrics import E2E, PER_LAYER  # noqa: E402
from repro import Engine  # noqa: E402

SMALL = common.Sizes(
    n_big=300, n_small=80, batch_m=16, burst=8, window_step=4, read_m=8,
    prep_ticks=5, setup_reps=2, recoveries=2,
)
SECONDS = 0.6


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_reports_every_metric(workload, trace):
    result = run.measure(workload, 7, SECONDS, trace, SMALL)["result"]
    catalogue = PER_LAYER if trace else E2E
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(catalogue)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def _corrupt(result):
    """Make every row's answer wrong."""
    a = result.answers
    if isinstance(a, np.ndarray):
        result.answers = (a + 1) % max(result.n, 2)
    else:
        result.answers = [frozenset({-1}) if isinstance(r, frozenset) else {-1: 1.0} for r in a]
    return result


def _in_queue_worker() -> bool:
    return threading.current_thread().name.startswith("repro-queue")


#: Which ``Engine.query`` calls serve the workload (and get corrupted),
#: as opposed to the calls its answer check makes.
SERVING = {
    "batch": lambda engine, spec: spec.tier == "pruned",  # the oracle is exact
    "http-point": lambda engine, spec: _in_queue_worker(),
    "tenant-storm": lambda engine, spec: _in_queue_worker(),
    "durable-ingest": lambda engine, spec: getattr(engine, "_reopened", False),
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_wrong_answer_counts_as_failed(workload, monkeypatch):
    query, open_durable = Engine.query, Engine.open_durable.__func__
    opened = set()

    def bad_query(self, qs, spec=None, **kwargs):
        result = query(self, qs, spec, **kwargs)
        return _corrupt(result) if SERVING[workload](self, result.spec) else result

    def tagging_open(cls, directory, *args, **kwargs):
        engine = open_durable(cls, directory, *args, **kwargs)
        engine._reopened = directory in opened  # the recovery under check
        opened.add(directory)
        return engine

    monkeypatch.setattr(Engine, "query", bad_query)
    monkeypatch.setattr(Engine, "open_durable", classmethod(tagging_open))
    result = run.measure(workload, 7, SECONDS, False, SMALL)["result"]
    assert result["failed"] >= 1 and not result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
