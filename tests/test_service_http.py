"""The HTTP front end: routes, status mapping, and wire fidelity.

An in-process :class:`repro.service.ServiceServer` on an ephemeral
port, driven with :mod:`urllib` — no external processes (the daemon
subprocess test lives in ``test_service_daemon.py``).  Pins:

* query answers over the wire are bit-identical to direct
  ``Engine.query`` for every method;
* dataset CRUD (PUT inline JSON, GET, POST points, DELETE) and its
  conflict semantics;
* the documented failure-mode -> status-code mapping, including the
  deterministic 504 via an already-expired deadline;
* ``/healthz``, ``/stats`` (JSON-clean), and ``/metrics`` exposition
  (queue depth, request counters, coalesced-batch and latency
  histograms all present);
* the connection edge: a client that stalls mid-request is
  disconnected after the read timeout while others keep being served.
"""

import http.client
import json
import socket
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import Engine, QuerySpec, io as repro_io
from repro.constructions import random_discrete_points, random_queries
from repro.service import DatasetRegistry, ServiceServer, wire
from repro.service import server as server_mod

from test_engine import MALFORMED_IDS, MALFORMED_SPECS

BBOX = (0, 0, 100, 100)


@pytest.fixture(scope="module")
def points():
    return random_discrete_points(35, 4, seed=21)


@pytest.fixture()
def server(points):
    reg = DatasetRegistry()
    reg.create("demo", points=list(points))
    srv = ServiceServer(reg, port=0).start()
    yield srv
    srv.drain(10)


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as resp:
        return resp.status, resp.read().decode()


def _send(server, verb, path, obj=None):
    data = None if obj is None else json.dumps(obj).encode()
    req = urllib.request.Request(server.url + path, data=data, method=verb)
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


def _error(server, verb, path, obj=None):
    try:
        _send(server, verb, path, obj)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())
    raise AssertionError(f"{verb} {path} unexpectedly succeeded")


# -- queries ------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec_obj",
    [
        {"method": "expected_nn"},
        {"method": "nonzero"},
        {"method": "threshold", "tau": 0.1},
        {"method": "expected_knn", "k": 3},
        {"method": "mc_pnn", "s": 48, "seed": 9},
        {"method": "expected_nn", "tier": "approx", "eps": 0.05},
    ],
    ids=lambda s: f"{s['method']}-{s.get('tier', 'pruned')}",
)
def test_query_bit_identical_over_the_wire(server, points, spec_obj):
    Q = random_queries(4, seed=3, bbox=BBOX)
    code, body = _send(
        server,
        "POST",
        "/v1/datasets/demo/query",
        {"query": Q, "spec": spec_obj},
    )
    assert code == 200
    direct = Engine(list(points)).query(
        np.asarray(Q), QuerySpec(**spec_obj)
    )
    assert body["answers"] == wire.encode_result(direct)["answers"]
    assert body["m"] == 4 and body["n"] == len(points)
    # And the client-side decoder reproduces a full QueryResult.
    restored = wire.decode_result(body)
    assert restored.spec == QuerySpec(**spec_obj)


def test_query_single_pair_normalised(server):
    code, body = _send(
        server, "POST", "/v1/datasets/demo/query", {"query": [[1.0, 2.0]]}
    )
    assert code == 200 and body["m"] == 1
    assert body["method"] == "expected_nn"  # default spec


# -- CRUD ---------------------------------------------------------------------


def test_dataset_crud_lifecycle(server, points):
    rel = json.loads(repro_io.dumps(points[:6]))
    code, body = _send(server, "PUT", "/v1/datasets/tenant2", {"points": rel})
    assert code == 201 and body["n"] == 6 and body["generation"] == 0

    assert _error(server, "PUT", "/v1/datasets/tenant2", {"points": rel})[
        0
    ] == 409

    code, body = _send(
        server,
        "POST",
        "/v1/datasets/tenant2/points",
        {"points": json.loads(repro_io.dumps(points[6:9]))},
    )
    assert code == 200 and body["n"] == 9 and body["generation"] == 1

    code, body = _send(server, "GET", "/v1/datasets/tenant2")
    assert body["n"] == 9 and "engine" in body

    code, body = _send(server, "GET", "/v1/datasets")
    assert {d["name"] for d in body["datasets"]} == {"demo", "tenant2"}

    code, body = _send(server, "DELETE", "/v1/datasets/tenant2")
    assert code == 200
    assert _error(server, "GET", "/v1/datasets/tenant2")[0] == 404


def test_put_replace_allows_overwrite(server, points):
    rel = json.loads(repro_io.dumps(points[:3]))
    _send(server, "PUT", "/v1/datasets/tmp", {"points": rel})
    code, body = _send(
        server, "PUT", "/v1/datasets/tmp", {"points": rel, "replace": True}
    )
    assert code == 201
    _send(server, "DELETE", "/v1/datasets/tmp")


# -- failure modes ------------------------------------------------------------


def test_status_mapping(server):
    Q = [[1.0, 2.0]]
    # 404: unknown dataset
    code, body = _error(server, "POST", "/v1/datasets/ghost/query", {"query": Q})
    assert code == 404 and body["error"] == "UnknownDatasetError"
    # 400: malformed query / spec / body
    assert _error(
        server, "POST", "/v1/datasets/demo/query", {"query": "nope"}
    )[0] == 400
    assert _error(
        server,
        "POST",
        "/v1/datasets/demo/query",
        {"query": Q, "spec": {"method": "expected_nn", "bogus": 1}},
    )[0] == 400
    assert _error(
        server, "POST", "/v1/datasets/demo/query", {"query": Q, "hm": 2}
    )[0] == 400
    # 400: invalid dataset name and bad point rows
    assert _error(
        server, "PUT", "/v1/datasets/demo", {"points": [{"bad": "row"}]}
    )[0] in (400, 409)
    code, body = _error(
        server, "PUT", "/v1/datasets/fresh", {"points": [{"bad": "row"}]}
    )
    assert code == 400 and body["error"] == "DistributionError"
    # A polygon whose hull spans no area is a malformed point too.
    flat = {"type": "polygon_uniform", "vertices": [
        [1.0, 0.0], [0.5403023058681398, 0.8414709848078965],
        [1.0, 4.71407264051071e-90],
    ]}
    code, body = _error(server, "PUT", "/v1/datasets/x", {"points": [flat]})
    assert code == 400 and body["error"] == "DistributionError"
    # 404: unrouted path
    assert _error(server, "GET", "/nope")[0] == 404
    # 504: a deadline that is already expired at the first checkpoint
    code, body = _error(
        server,
        "POST",
        "/v1/datasets/demo/query",
        {"query": Q, "spec": {"method": "expected_nn", "deadline_s": 1e-9}},
    )
    assert code == 504 and body["error"] == "QueryTimeoutError"


@pytest.mark.parametrize("spec_obj, field", MALFORMED_SPECS, ids=MALFORMED_IDS)
def test_malformed_spec_field_is_400(server, spec_obj, field):
    code, body = _error(
        server, "POST", "/v1/datasets/demo/query",
        {"query": [[1.0, 2.0]], "spec": spec_obj},
    )
    assert code == 400 and body["error"] == "QueryError"
    assert body["message"].startswith(f"{field} must"), body["message"]


def test_oversized_body_rejected_413_before_buffering(server):
    """A request whose declared Content-Length exceeds
    ``SERVICE.max_body_bytes`` costs a 413 computed from the header
    alone — the handler never buffers (or even reads) the body."""
    from repro.config import service as service_config

    with service_config(max_body_bytes=1024):
        req = urllib.request.Request(
            server.url + "/v1/datasets/demo/query",
            data=b"x" * 2048,
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 413
        body = json.loads(err.value.read())
        assert body["error"] == "PayloadTooLargeError"
        assert "2048" in body["message"] and "1024" in body["message"]
        # Under the limit still works.
        code, _ = _send(
            server, "POST", "/v1/datasets/demo/query", {"query": [[1.0, 2.0]]}
        )
        assert code == 200


def test_429_carries_retry_after_and_queue_depth(points):
    from repro.service import RequestQueue

    reg = DatasetRegistry()
    reg.create("demo", points=list(points))
    queue = RequestQueue(reg, max_depth=1, start=False)
    srv = ServiceServer(reg, port=0, queue=queue).start()
    try:
        # Fill the single admission slot; the queue never executes it
        # (start=False), so the next HTTP request must bounce.
        queue.submit("demo", wire.decode_spec({"method": "expected_nn"}),
                     [[0.0, 0.0]])
        req = urllib.request.Request(
            srv.url + "/v1/datasets/demo/query",
            data=json.dumps({"query": [[1.0, 2.0]]}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 429
        assert int(err.value.headers["Retry-After"]) >= 1
        body = json.loads(err.value.read())
        assert body["error"] == "QueueFullError"
        assert body["queue_depth"] == 1 and body["queue_limit"] == 1
    finally:
        srv.drain(5)


def test_503_when_draining_carries_retry_after(points):
    reg = DatasetRegistry()
    reg.create("demo", points=list(points))
    srv = ServiceServer(reg, port=0).start()
    try:
        # Flip the queue to draining without stopping the listener.
        srv.queue._draining = True
        req = urllib.request.Request(
            srv.url + "/v1/datasets/demo/query",
            data=json.dumps({"query": [[1.0, 2.0]]}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 503
        assert int(err.value.headers["Retry-After"]) >= 1
        assert "queue_depth" in json.loads(err.value.read())
    finally:
        srv.queue._draining = False
        srv.drain(5)


def test_raw_bad_json_body_is_400(server):
    req = urllib.request.Request(
        server.url + "/v1/datasets/demo/query", data=b"{not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=30)
    assert err.value.code == 400


# -- operational surfaces -----------------------------------------------------


def test_healthz_and_stats(server):
    code, text = _get(server, "/healthz")
    body = json.loads(text)
    assert code == 200 and body["status"] == "ok"
    assert body["datasets"] == 1

    code, text = _get(server, "/stats")
    stats = json.loads(text)  # must be JSON-clean end to end
    assert stats["service"]["queue"]["submitted"] >= 0
    assert "demo" in stats["registry"]["per_dataset"]
    assert "engine" in stats["registry"]["per_dataset"]["demo"]


def test_metrics_exposition(server):
    # Generate traffic first: one success, one 404.
    _send(
        server,
        "POST",
        "/v1/datasets/demo/query",
        {"query": [[1.0, 2.0], [3.0, 4.0]]},
    )
    _error(server, "POST", "/v1/datasets/ghost/query", {"query": [[0.0, 0.0]]})

    code, text = _get(server, "/metrics")
    assert code == 200
    assert (
        'repro_requests_total{dataset="demo",method="expected_nn",code="200"} 1'
        in text
    )
    assert (
        'repro_requests_total{dataset="ghost",method="-",code="404"} 1' in text
    )
    # The ISSUE's required surfaces: queue depth, coalesced batch
    # sizes, latency histograms.
    assert "repro_queue_depth 0" in text
    assert 'repro_coalesced_batch_size_bucket{le="1"} 1' in text
    assert "repro_coalesced_batch_size_count 1" in text
    assert 'repro_coalesced_batch_rows_bucket{le="4"} 1' in text
    assert "repro_request_latency_seconds_count 1" not in text  # labelled
    assert 'repro_request_latency_seconds_count{dataset="demo"} 1' in text
    assert 'repro_dataset_objects{dataset="demo"} 35' in text
    assert "# TYPE repro_request_latency_seconds histogram" in text
    # Engine gauges come straight from Engine.stats() at scrape time.
    assert 'repro_engine_registry_builds{dataset="demo"}' in text


def test_drain_flips_health_and_rejects(points):
    reg = DatasetRegistry()
    reg.create("demo", points=list(points))
    srv = ServiceServer(reg, port=0).start()
    url = srv.url
    srv.drain(10)
    # The listener is gone after drain; health checks fail at the
    # connection level, which orchestrators treat as not-ready.
    with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
        urllib.request.urlopen(url + "/healthz", timeout=5)


def test_context_manager_drains(points):
    reg = DatasetRegistry()
    reg.create("demo", points=list(points))
    with ServiceServer(reg, port=0) as srv:
        code, _ = _get(srv, "/healthz")
        assert code == 200
    with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
        urllib.request.urlopen(srv.url + "/healthz", timeout=5)


# -- connection edge ----------------------------------------------------------


def _keepalive_query(conn, row):
    body = json.dumps({"query": [row]})
    conn.request(
        "POST", "/v1/datasets/demo/query", body=body,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    payload = json.loads(resp.read())
    assert resp.status == 200 and payload["m"] == 1
    return payload


def test_stalled_client_is_disconnected_while_others_are_served(
    server, monkeypatch
):
    assert server_mod._ServiceHandler.timeout == server_mod.READ_TIMEOUT_S
    monkeypatch.setattr(server_mod._ServiceHandler, "timeout", 0.5)
    stalled = socket.create_connection((server.host, server.port), timeout=10)
    mid_body = socket.create_connection((server.host, server.port), timeout=10)
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        stalled.sendall(b"POST /v1/datasets/demo/qu")  # half a request line
        mid_body.sendall(
            b"POST /v1/datasets/demo/query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100\r\n\r\n{\"query\": [[1.0,"
        )
        rows = random_queries(6, seed=23, bbox=BBOX)
        t0 = time.monotonic()
        for row in rows[:3]:
            _keepalive_query(conn, row)
        # The stalled handlers give up after their read timeout and close
        # the socket: a half request line gets EOF, a half body a 408.
        assert stalled.recv(1024) == b""
        reply = b""
        while chunk := mid_body.recv(4096):
            reply += chunk
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert time.monotonic() - t0 < 5.0
        for row in rows[3:]:
            _keepalive_query(conn, row)
    finally:
        stalled.close()
        mid_body.close()
        conn.close()
