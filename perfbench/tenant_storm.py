"""``tenant-storm``: an open loop of bursts into the coalescing queue.

One :class:`repro.service.DatasetRegistry` holds four tenants — the
2·10^4-disk set plus three 2·10^3 sets (one disk, two discrete) —
behind one :class:`repro.service.RequestQueue` with the default
``SERVICE`` settings (coalescing on, one worker).  Every 100 ms the
generator (this thread) submits a burst of 32 single-row requests; a
seeded stream picks each request's tenant and spec.  Latency runs from
the burst's due time to completion, as the queue's ``on_done`` hook
reports it.  Bursts drain well inside their period, so the queue never
saturates; a steady arrival rate gave medians that did not repeat.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

import numpy as np

from repro import Engine, QuerySpec
from repro.errors import QueueFullError, ServiceError
from repro.service import DatasetRegistry, RequestQueue

import common
from common import ColdSetups, Outcome, Phases, Rows, Sizes, reason_of, row_answers
from metrics import counter_delta, engine_counters, layer_metrics, queue_delta, queue_layers
from tracer import Attribution, Tracer

SPECS = (QuerySpec("expected_nn"), QuerySpec("nonzero"))
WAIT_S = 60.0
BURST_PERIOD_S = 0.1
#: A request answered within this time of its due time is on time.
LIMIT_S = 0.1


def tenants(seed: int, sizes: Sizes) -> Dict[str, list]:
    return {
        "disk-big": common.disk_points(sizes.n_big, seed, "storm-disk-big"),
        "disk-small": common.disk_points(sizes.n_small, seed, "storm-disk-small"),
        "discrete-a": common.discrete_points(sizes.n_small, seed, "storm-discrete-a"),
        "discrete-b": common.discrete_points(sizes.n_small, seed, "storm-discrete-b"),
    }


def _close(registry, queue) -> None:
    queue.drain()
    queue.close()
    registry.close_all()


def run(seed: int, seconds: float, tracer: Optional[Tracer], sizes: Sizes = common.FULL) -> Outcome:
    data = tenants(seed, sizes)
    rows = Rows(seed, "storm-rows")
    phases = Phases()

    # Cold set-up: empty registry to the first answer of every
    # (tenant, spec) pair, through the queue.
    def cold(firsts):
        registry = DatasetRegistry()
        queue = RequestQueue(registry)
        try:
            for name, pts in data.items():
                registry.create(name, points=pts)
            tickets = [queue.submit(name, spec, Q) for name, spec, Q in firsts]
            for t in tickets:
                t.wait(WAIT_S)
        except BaseException:
            _close(registry, queue)
            raise
        return registry, queue

    def first_rows():
        return [(name, spec, rows.take(1)) for name in data for spec in SPECS]

    setups = ColdSetups(phases, len(data) * len(SPECS))
    handle = setups.once(cold, first_rows())
    if handle is None:
        raise RuntimeError("tenant-storm: the cold set-up failed")
    registry, queue = handle

    # The offered load, drawn before the clock starts.
    bursts = int(round(seconds / BURST_PERIOD_S))
    pick = random.Random(common.subseed(seed, "storm-mix"))
    names = list(data)
    plan = [
        [(pick.choice(names), pick.choice(SPECS), rows.take(1)) for _ in range(sizes.burst)]
        for _ in range(bursts)
    ]

    done: List[tuple] = []  # (ticket, done time, error, serving span)

    def on_done(ticket, latency, error):
        span = tracer.last_root() if tracer is not None else None
        done.append((ticket, ticket.submitted_at + latency, error, span))

    queue.on_done = on_done
    engines = [registry.get(name).engine for name in names]
    before = engine_counters(engines) if tracer else None
    q_before = dict(queue.counters)

    due_of: Dict[int, float] = {}
    tickets = []
    late: List[float] = []
    loop_t0 = time.perf_counter()
    base = time.monotonic() + 0.05
    for k, burst in enumerate(plan):
        due = base + k * BURST_PERIOD_S
        pause = due - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        late.append(time.monotonic() - due)
        for name, spec, Q in burst:
            try:
                ticket = queue.submit(name, spec, Q)
            except QueueFullError:
                phases.fail("run", "queue_full")
                continue
            except ServiceError as exc:
                phases.fail("run", reason_of(exc))
                continue
            due_of[id(ticket)] = due
            tickets.append(ticket)
    for t in tickets:
        t.event.wait(WAIT_S)
    loop_t1 = time.perf_counter()
    counters = counter_delta(before, engine_counters(engines)) if tracer else None
    q_delta = queue_delta(q_before, queue.counters)
    _close(registry, queue)
    del registry, queue, engines, handle
    for _ in range(sizes.setup_reps - 1):
        handle = setups.once(cold, first_rows())
        if handle is not None:
            _close(*handle)
    peak_mb = common.peak_rss_mb()  # before the checks build their oracles

    # Outcomes, then the answer check: every ticket against a serial
    # Engine.query of its row on a fresh engine.
    lat, on_time, first_due, last_done = [], 0, base, base
    finished = {id(t): (at, err, span) for t, at, err, span in done}
    oracles = {name: Engine(pts, result_cache_size=0) for name, pts in data.items()}
    for t in tickets:
        at, err, _ = finished.get(id(t), (None, None, None))
        if at is None or err is not None or t.result is None:
            phases.fail("run", reason_of(err) if err is not None else "not_served")
            continue
        phases.ok("run")
        latency = at - due_of[id(t)]
        lat.append(latency)
        on_time += latency <= LIMIT_S
        last_done = max(last_done, at)
        want = oracles[t.dataset].query(t.Q, t.spec)
        if row_answers(t.result, [0]) != row_answers(want, [0]):
            phases.wrong("run")
            on_time -= latency <= LIMIT_S
    sent = bursts * sizes.burst
    del oracles

    summary = common.latency_summary(lat)
    e2e = {
        "setup_s": setups.median(),
        "p50_ms": summary["p50_ms"],
        "p90_ms": summary["p90_ms"],
        "rows_per_s": len(lat) / max(last_done - first_due, 1e-9),
        "peak_rss_mb": peak_mb,
    }
    layers: Dict[str, float] = {}
    if tracer is not None:
        att = Attribution(tracer.within([(loop_t0, loop_t1)]))
        layers = layer_metrics(att, len(lat), counters)
        wait, execute = [], []
        for request, t in enumerate(tickets):
            at, err, span_id = finished.get(id(t), (None, None, None))
            span = att.by_id.get(span_id)
            if at is None or span is None:
                continue
            tracer.tie(request, span_id)
            execute.append(span.dur)
            wait.append(at - t.submitted_at - span.dur)
        layers.update({
            "queue.wait_ms": float(np.mean(wait)) * 1000.0 if wait else 0.0,
            "queue.exec_ms": float(np.mean(execute)) * 1000.0 if execute else 0.0,
            **queue_layers(q_delta),
        })
    details = {
        "latency": summary, "sent": sent, "served": len(lat), "bursts": bursts,
        "queue": q_delta, "setup_samples_s": setups.samples,
        "late_p50_ms": common.pct(late, 50) * 1000.0,
        "late_max_ms": max(late) * 1000.0 if late else 0.0,
        "within_limit_frac": on_time / sent if sent else 0.0,
    }
    return Outcome(e2e, {}, layers, phases, details)
