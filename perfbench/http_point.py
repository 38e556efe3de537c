"""``http-point``: single-row queries through the HTTP daemon.

A :class:`repro.service.ServiceServer` listens on an ephemeral loopback
port inside this process.  The 2·10^4-disk tenant is created with
``PUT /v1/datasets/{name}``; one keep-alive ``http.client`` connection
then sends single-row ``POST .../query`` requests in a closed loop, with
the wire's default spec (``expected_nn``) and a fresh row each time.
Fixed per-request costs do the work: HTTP handling, the JSON codecs,
the queue hand-off and single-row dual-tree dispatch.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, List, Optional

import numpy as np

import repro.io
from repro import Engine, QuerySpec
from repro.service import ServiceServer, wire

import common
from common import ColdSetups, Failed, Outcome, Phases, Rows, Sizes, reason_of, row_answers
from metrics import add_counters, counter_delta, engine_counters, layer_metrics, queue_delta, queue_layers
from tracer import Attribution, Tracer

DATASET = "points"
QUERY_PATH = f"/v1/datasets/{DATASET}/query"


def _body(row: np.ndarray) -> bytes:
    return json.dumps({"query": [row.tolist()]}).encode()


def _request(conn, verb: str, path: str, body: bytes):
    conn.request(verb, path, body=body)
    resp = conn.getresponse()
    return resp.status, resp.read()


def run(seed: int, seconds: float, tracer: Optional[Tracer], sizes: Sizes = common.FULL) -> Outcome:
    points = common.disk_points(sizes.n_big, seed, "http-disk")
    put_body = ('{"points": ' + repro.io.dumps(points) + "}").encode()
    rows = Rows(seed, "http-rows")
    phases = Phases()

    # Cold set-up: empty service to the first answer (create, then one query).
    def cold(first):
        server = ServiceServer(port=0).start()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            for verb, path, body, want in (
                ("PUT", f"/v1/datasets/{DATASET}", put_body, 201),
                ("POST", QUERY_PATH, first, 200),
            ):
                status, _ = _request(conn, verb, path, body)
                if status != want:
                    raise Failed(f"http:{status}")
        except BaseException:
            close((server, conn))
            raise
        return server, conn

    def close(handle):
        handle[1].close()
        handle[0].drain()

    # The timed closed loop runs in one segment after each cold set-up,
    # against that set-up's server.
    setups = ColdSetups(phases, 2)
    lat: List[float] = []
    sent: List[tuple] = []  # (row, response bytes) of answered requests
    rt: Dict[int, float] = {}
    # Per-request queue latency (submit to done) and the engine span that
    # served it, tied from outside through the queue's public hook.
    served: Dict[int, tuple] = {}
    counters = engine_counters([])
    q_delta: Dict[str, int] = {}
    windows = []
    i = 0
    for _ in range(sizes.setup_reps):
        handle = setups.once(cold, _body(rows.take(1)[0]))
        if handle is None:
            raise RuntimeError("http-point: a cold set-up failed")
        server, conn = handle
        if tracer is not None:
            chained = server.queue.on_done

            def on_done(ticket, latency, error, chained=chained):
                chained(ticket, latency, error)
                served[tracer.request] = (latency, tracer.last_root())

            server.queue.on_done = on_done
        engine = server.registry.get(DATASET).engine
        before = engine_counters([engine]) if tracer else None
        q_before = dict(server.queue.counters)
        seg_t0 = time.perf_counter()
        deadline = seg_t0 + seconds / sizes.setup_reps
        while time.perf_counter() < deadline:
            row = rows.take(1)[0]
            body = _body(row)
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                status, data = _request(conn, "POST", QUERY_PATH, body)
            except (OSError, http.client.HTTPException) as exc:
                phases.fail("run", reason_of(exc))
                conn.close()
                conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
                i += 1
                continue
            elapsed = time.perf_counter() - t0
            if status == 200:
                lat.append(elapsed)
                rt[i] = elapsed
                sent.append((row, data))
                phases.ok("run")
            else:
                phases.fail("run", f"http:{status}")
            i += 1
        windows.append((seg_t0, time.perf_counter()))
        if tracer is not None:
            tracer.request = None
            add_counters(counters, counter_delta(before, engine_counters([engine])))
        for key, n in queue_delta(q_before, server.queue.counters).items():
            q_delta[key] = q_delta.get(key, 0) + n
        close((server, conn))
        del server, conn, engine, handle  # so the next set-up does not raise the memory peak
    peak_mb = common.peak_rss_mb()  # before the check builds its oracle

    # Answer check: decoded HTTP answers equal in-process Engine.query.
    if sent:
        decoded = [wire.decode_result(json.loads(data)) for _, data in sent]
        oracle = Engine(points, result_cache_size=0).query(
            np.asarray([row for row, _ in sent]), QuerySpec("expected_nn")
        )
        want = row_answers(oracle, range(len(sent)))
        wrong = sum(row_answers(d, [0])[0] != w for d, w in zip(decoded, want))
        if wrong:
            phases.wrong("run", wrong)

    summary = common.latency_summary(lat)
    loop_s = sum(t1 - t0 for t0, t1 in windows)
    e2e = {
        "setup_s": setups.median(),
        "p50_ms": summary["p50_ms"],
        "p90_ms": summary["p90_ms"],
        "rows_per_s": len(lat) / loop_s,
        "peak_rss_mb": peak_mb,
    }
    layers: Dict[str, float] = {}
    if tracer is not None:
        att = Attribution(tracer.within(windows))
        ops = len(lat)
        layers = layer_metrics(att, ops, counters)
        layers.update(_request_split(att, rt, served))
        layers["wire.response_bytes"] = float(np.mean([len(d) for _, d in sent])) if sent else 0.0
        layers.update(queue_layers(q_delta))
    details = {
        "latency": summary, "requests": i, "answered": len(lat),
        "setup_samples_s": setups.samples, "loop_s": loop_s, "queue": q_delta,
    }
    return Outcome(e2e, {}, layers, phases, details)


def _request_split(att: Attribution, rt: Dict[int, float], served: Dict[int, tuple]) -> Dict[str, float]:
    """Split each round trip into wire, queue wait, execution and server self time."""
    by_request: Dict[int, Dict[str, float]] = {}
    for s in att.spans:
        if s.request is not None and s.name.startswith("wire."):
            row = by_request.setdefault(s.request, {})
            row[s.name] = row.get(s.name, 0.0) + s.dur
    server_self, wait, execute = [], [], []
    for req, elapsed in rt.items():
        if req not in served:
            continue
        queue_s, span_id = served[req]
        span = att.by_id.get(span_id)
        exec_s = span.dur if span is not None else 0.0
        codecs = by_request.get(req, {})
        server_self.append(elapsed - queue_s - sum(codecs.values()))
        wait.append(queue_s - exec_s)
        execute.append(exec_s)
    mean_ms = lambda v: float(np.mean(v)) * 1000.0 if v else 0.0  # noqa: E731
    return {
        "server.self_ms": mean_ms(server_self),
        "queue.wait_ms": mean_ms(wait),
        "queue.exec_ms": mean_ms(execute),
    }
