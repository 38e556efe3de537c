"""Threaded HTTP front end for the query daemon.

Stdlib-only (:mod:`http.server`): a ``ThreadingHTTPServer`` whose
handler threads validate and enqueue requests on the coalescing
:class:`repro.service.queue.RequestQueue` and block on their tickets —
the queue's dispatcher is what actually touches engines, so tenant
isolation and coalescing live in one place regardless of how many
handler threads are in flight.

Endpoints
---------
==========================================  ==================================
``POST /v1/datasets/{name}/query``          execute one query batch
``GET /v1/datasets``                        list datasets
``GET /v1/datasets/{name}``                 one dataset's info + engine stats
``PUT /v1/datasets/{name}``                 create (inline points / snapshot)
``POST /v1/datasets/{name}/points``         append points (generation bump)
``DELETE /v1/datasets/{name}``              drop + close
``GET /healthz``                            liveness / readiness
``GET /stats``                              full JSON telemetry
``GET /metrics``                            Prometheus text exposition
==========================================  ==================================

Failure modes map to HTTP statuses: malformed input 400 (``QueryError``
/ ``DistributionError``), unknown dataset 404, name collision 409,
oversized bodies 413 (rejected from ``Content-Length`` alone, before
buffering), a body stalled past ``READ_TIMEOUT_S`` 408 (the
connection then closes), queue admission 429, draining / resource
limits 503, expired deadlines 504.  Error bodies are ``{"error": <type>,
"message": ...}``; 429/503 responses carry a ``Retry-After`` header and
the live ``queue_depth`` so clients can pace their retries.

Graceful shutdown (``SIGTERM`` via :meth:`ServiceServer.drain`): the
health endpoint flips to 503, new submissions are rejected, queued
requests finish within ``SERVICE.drain_timeout_s``, then the listener
stops and every engine closes.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from .._version import __version__
from ..config import SERVICE as _SERVICE
from ..engine import QuerySpec
from ..errors import (
    DatasetExistsError,
    DistributionError,
    PayloadTooLargeError,
    QueryError,
    QueryTimeoutError,
    QueueFullError,
    ReproError,
    ResourceLimitError,
    ServiceError,
    ServiceUnavailableError,
    SnapshotError,
    UnknownDatasetError,
)
from . import wire
from .metrics import DEFAULT_BUCKETS, MetricsRegistry
from .queue import RequestQueue
from .registry import DatasetRegistry

__all__ = ["ServiceServer", "status_of"]

#: Coalesced-batch-size buckets: powers of two up to the request cap.
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Seconds a connection may sit in one socket read (a request line, a
#: header, a body chunk, or the idle gap between keep-alive requests)
#: before the server closes it, so a stalled client cannot pin a
#: handler thread forever.
READ_TIMEOUT_S = 60.0


def status_of(exc: BaseException) -> int:
    """The HTTP status for one library error (the documented mapping)."""
    if isinstance(exc, UnknownDatasetError):
        return 404
    if isinstance(exc, DatasetExistsError):
        return 409
    if isinstance(exc, QueueFullError):
        return 429
    if isinstance(exc, PayloadTooLargeError):
        return 413
    if isinstance(exc, (ServiceUnavailableError, ResourceLimitError)):
        return 503
    if isinstance(exc, QueryTimeoutError):
        return 504
    if isinstance(exc, TimeoutError):
        return 408  # the client stalled past READ_TIMEOUT_S
    if isinstance(exc, (QueryError, DistributionError, SnapshotError)):
        return 400
    if isinstance(exc, ServiceError):
        return 500
    return 500


class ServiceServer:
    """The daemon: registry + queue + metrics behind one HTTP listener.

    Construct, then :meth:`start` (background thread) or
    :meth:`serve_forever` (current thread).  ``port=0`` binds an
    ephemeral port, published as :attr:`port` — tests and the CLI's
    ``--ready-file`` use it.  Also a context manager: ``with
    ServiceServer(...) as srv: ...`` drains on exit.
    """

    def __init__(
        self,
        registry: Optional[DatasetRegistry] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8077,
        queue: Optional[RequestQueue] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.registry = registry if registry is not None else DatasetRegistry()
        self.queue = (
            queue if queue is not None else RequestQueue(self.registry)
        )
        if self.queue.registry is not self.registry:
            raise ValueError("queue must be built over the same registry")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._started_at = time.time()
        self._draining = False
        self._thread: Optional[threading.Thread] = None
        self._build_metrics()
        self._wire_queue_hooks()

        server = self

        class _Handler(_ServiceHandler):
            service = server

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]

    # -- metrics --------------------------------------------------------------
    def _build_metrics(self) -> None:
        m = self.metrics
        self.m_requests = m.counter(
            "repro_requests_total",
            "Requests handled by the query service.",
            ("dataset", "method", "code"),
        )
        self.m_latency = m.histogram(
            "repro_request_latency_seconds",
            "Per-request latency from admission to answer (queue wait "
            "plus coalesced execution).",
            ("dataset",),
            buckets=DEFAULT_BUCKETS,
        )
        self.m_batch = m.histogram(
            "repro_coalesced_batch_size",
            "Requests merged into each executed planner batch "
            "(1 = served solo).",
            buckets=_BATCH_BUCKETS,
        )
        self.m_batch_rows = m.histogram(
            "repro_coalesced_batch_rows",
            "Total query rows per executed planner batch.",
            buckets=(1, 4, 16, 64, 256, 1024, 4096),
        )
        self.m_depth = m.gauge(
            "repro_queue_depth", "Requests currently queued."
        )
        self.m_rejected = m.counter(
            "repro_admission_rejections_total",
            "Requests rejected by queue admission control.",
        )
        self.m_datasets = m.gauge(
            "repro_datasets", "Datasets currently registered."
        )
        self.m_uptime = m.gauge(
            "repro_uptime_seconds", "Seconds since the daemon started."
        )
        self.m_engine = {
            "n": m.gauge(
                "repro_dataset_objects",
                "Uncertain objects in the dataset.",
                ("dataset",),
            ),
            "generation": m.gauge(
                "repro_dataset_generation",
                "Dataset generation counter (bumped by updates).",
                ("dataset",),
            ),
            "registry_builds": m.gauge(
                "repro_engine_registry_builds",
                "Index structures built by the engine session.",
                ("dataset",),
            ),
            "registry_hits": m.gauge(
                "repro_engine_registry_hits",
                "Index registry cache hits.",
                ("dataset",),
            ),
            "result_cache_hits": m.gauge(
                "repro_engine_result_cache_hits",
                "Hot-batch result cache hits.",
                ("dataset",),
            ),
            "result_cache_misses": m.gauge(
                "repro_engine_result_cache_misses",
                "Result cache misses.",
                ("dataset",),
            ),
            "memory_bytes": m.gauge(
                "repro_engine_memory_bytes",
                "Approximate bytes held by the engine's cached "
                "columns and indexes.",
                ("dataset",),
            ),
        }
        self.m_eval_pairs = m.gauge(
            "repro_engine_eval_pairs",
            "Survivor pairs evaluated by the grouped kernels.",
            ("dataset",),
        )
        self.m_faults = m.gauge(
            "repro_engine_faults",
            "Per-engine fault/recovery counters.",
            ("dataset", "kind"),
        )
        self.m_wal = {
            "records": m.gauge(
                "repro_wal_records",
                "Records in the dataset's write-ahead log since the "
                "last compaction.",
                ("dataset",),
            ),
            "size_bytes": m.gauge(
                "repro_wal_bytes",
                "Write-ahead log size on disk.",
                ("dataset",),
            ),
            "fsyncs": m.gauge(
                "repro_wal_fsyncs",
                "fsync calls issued by the write-ahead log.",
                ("dataset",),
            ),
            "fsync_seconds": m.gauge(
                "repro_wal_fsync_seconds",
                "Cumulative seconds spent in WAL fsync.",
                ("dataset",),
            ),
            "rotations": m.gauge(
                "repro_wal_rotations",
                "Completed snapshot-then-truncate compactions.",
                ("dataset",),
            ),
            "replayed": m.gauge(
                "repro_wal_replayed_records",
                "Records replayed when this dataset was recovered.",
                ("dataset",),
            ),
        }
        m.add_updater(self._refresh_gauges)

    def _refresh_gauges(self) -> None:
        """Scrape-time refresh: queue depth and per-dataset engine
        telemetry straight from ``Engine.stats()``."""
        self.m_depth.set(self.queue.depth)
        self.m_uptime.set(time.time() - self._started_at)
        self.m_rejected._values[()] = float(  # mirrors the queue counter
            self.queue.counters["rejected"]
        )
        names = set(self.registry.names())
        self.m_datasets.set(len(names))
        for gauge in (*self.m_engine.values(), *self.m_wal.values()):
            for key in list(gauge._values):
                if key[0] not in names:
                    gauge._values.pop(key, None)
        for name in names:
            try:
                ds = self.registry.get(name)
                stats = ds.engine.stats()
            except ReproError:
                continue
            for field, gauge in self.m_engine.items():
                gauge.set(float(stats.get(field, 0)), dataset=name)
            ev = stats.get("evaluators")
            if isinstance(ev, dict) and "pairs" in ev:
                self.m_eval_pairs.set(float(ev["pairs"]), dataset=name)
            for kind, count in (stats.get("faults") or {}).items():
                self.m_faults.set(float(count), dataset=name, kind=kind)
            wal = stats.get("wal")
            if isinstance(wal, dict):
                for field, gauge in self.m_wal.items():
                    gauge.set(float(wal.get(field, 0)), dataset=name)

    def _wire_queue_hooks(self) -> None:
        def on_batch(requests: int, rows: int) -> None:
            self.m_batch.observe(requests)
            self.m_batch_rows.observe(rows)

        def on_done(ticket, latency, error) -> None:
            self.m_latency.observe(latency, dataset=ticket.dataset)

        self.queue.on_batch = on_batch
        self.queue.on_done = on_done

    # -- lifecycle ------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve in a background thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's main loop)."""
        self._httpd.serve_forever()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: flip health to draining, reject new work,
        serve the backlog, stop the listener, close every engine.
        Returns True when the backlog fully drained in time."""
        self._draining = True
        drained = self.queue.drain(timeout)
        self.queue.close()
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd.server_close()
        self.registry.close_all()
        return drained

    def __enter__(self) -> "ServiceServer":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.drain()

    # -- route logic (called by the handler) ----------------------------------
    @property
    def draining(self) -> bool:
        return self._draining or self.queue.draining

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        body = {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "datasets": len(self.registry),
            "queue_depth": self.queue.depth,
            "uptime_s": time.time() - self._started_at,
        }
        return (503 if self.draining else 200), body

    def stats(self) -> Dict[str, object]:
        return {
            "service": {
                "version": __version__,
                "uptime_s": time.time() - self._started_at,
                "draining": self.draining,
                "queue": dict(self.queue.counters),
                "queue_depth": self.queue.depth,
            },
            "registry": self.registry.stats(),
        }

    def execute_query(self, name: str, body: bytes) -> Dict[str, object]:
        spec, Q = wire.decode_request(body)
        if spec.deadline_s is None and _SERVICE.default_deadline_s:
            spec = QuerySpec.from_dict(
                {**spec.to_dict(), "deadline_s": _SERVICE.default_deadline_s}
            )
        result = self.queue.query(name, spec, Q)
        return wire.encode_result(result)

    def create_dataset(self, name: str, body: bytes) -> Dict[str, object]:
        payload = _parse_json_object(body, what="dataset body")
        unknown = sorted(
            set(payload)
            - {"points", "snapshot", "shards", "result_cache_size", "replace"}
        )
        if unknown:
            raise QueryError(f"unknown dataset fields: {unknown}")
        ds = self.registry.create(
            name,
            points_json=payload.get("points"),
            snapshot=payload.get("snapshot"),
            shards=payload.get("shards"),
            result_cache_size=int(payload.get("result_cache_size", 32)),
            replace=bool(payload.get("replace", False)),
        )
        return ds.info()

    def insert_points(self, name: str, body: bytes) -> Dict[str, object]:
        payload = _parse_json_object(body, what="points body")
        if "points" not in payload:
            raise QueryError("points body requires a 'points' array")
        ds = self.registry.insert(name, points_json=payload["points"])
        return ds.info()

    def dataset_info(self, name: str) -> Dict[str, object]:
        ds = self.registry.get(name)
        return {**ds.info(), "engine": ds.engine.stats()}


def _format_retry_after() -> str:
    """``Retry-After`` takes integral seconds; round the configured
    hint up so a 0.5s hint never renders as "retry immediately"."""
    return str(max(1, int(-(-_SERVICE.retry_after_s // 1))))


def _parse_json_object(body: bytes, what: str) -> Dict[str, object]:
    try:
        payload = json.loads(body.decode("utf-8") or "{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise QueryError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise QueryError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


class _ServiceHandler(BaseHTTPRequestHandler):
    """Route parsing + error mapping; all state lives on ``service``."""

    service: ServiceServer  # bound per server instance
    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"
    timeout = READ_TIMEOUT_S

    # -- plumbing -------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # access logs are the metrics' job; stderr stays quiet

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        limit = _SERVICE.max_body_bytes
        if limit and length > limit:
            # Reject from the declared length alone — an oversized body
            # must cost 413, never ``length`` bytes of handler memory.
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit (SERVICE.max_body_bytes)",
                length=length,
                limit=limit,
            )
        try:
            return self.rfile.read(length) if length > 0 else b""
        except TimeoutError:
            # Stalled mid-body: the rest of the stream cannot be framed.
            self.close_connection = True
            raise

    def _send(
        self,
        code: int,
        payload,
        content_type="application/json",
        headers: Optional[Dict[str, str]] = None,
    ):
        if isinstance(payload, (dict, list)):
            data = (json.dumps(payload) + "\n").encode("utf-8")
        elif isinstance(payload, str):
            data = payload.encode("utf-8")
        else:
            data = payload
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_error(self, exc: BaseException, code: Optional[int] = None):
        code = code if code is not None else status_of(exc)
        body: Dict[str, object] = {
            "error": type(exc).__name__, "message": str(exc)
        }
        headers: Optional[Dict[str, str]] = None
        if code == 413:
            # The oversized body was never read; the connection's byte
            # stream is unusable for another request.
            self.close_connection = True
        if code in (429, 503):
            # Back-pressure statuses carry a retry hint and the live
            # queue depth so clients can pace themselves instead of
            # hammering a saturated daemon.
            headers = {"Retry-After": _format_retry_after()}
            body["queue_depth"] = self.service.queue.depth
            limit = getattr(exc, "limit", None)
            if limit is not None:
                body["queue_limit"] = limit
        self._send(code, body, headers=headers)

    def _route(self, verb: str) -> None:
        service = self.service
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        dataset_label = "-"
        method_label = "-"
        try:
            if verb == "GET" and path == "/healthz":
                code, body = service.healthz()
                self._send(code, body)
                return
            if verb == "GET" and path == "/stats":
                self._send(200, service.stats())
                return
            if verb == "GET" and path == "/metrics":
                self._send(
                    200,
                    service.metrics.render(),
                    content_type=(
                        "text/plain; version=0.0.4; charset=utf-8"
                    ),
                )
                return
            if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "datasets":
                if len(parts) == 2 and verb == "GET":
                    self._send(200, {"datasets": service.registry.list()})
                    return
                if len(parts) >= 3:
                    name = parts[2]
                    dataset_label = name
                    if len(parts) == 3:
                        if verb == "GET":
                            self._send(200, service.dataset_info(name))
                            return
                        if verb == "PUT":
                            info = service.create_dataset(name, self._body())
                            self._send(201, info)
                            return
                        if verb == "DELETE":
                            service.registry.drop(name)
                            self._send(200, {"dropped": name})
                            return
                    if len(parts) == 4 and verb == "POST":
                        if parts[3] == "query":
                            body = self._body()
                            payload = service.execute_query(name, body)
                            method_label = payload.get("method", "-")
                            # Count before writing the response: a
                            # scrape must never observe an answered
                            # request with a stale counter.
                            self._count(dataset_label, method_label, 200)
                            self._send(200, payload)
                            return
                        if parts[3] == "points":
                            self._send(
                                200, service.insert_points(name, self._body())
                            )
                            return
            self._send_error(
                ServiceError(f"no route for {verb} {path}"), code=404
            )
        except Exception as exc:  # noqa: BLE001 - mapped to HTTP statuses
            code = status_of(exc)
            if parts[-1:] == ["query"]:
                self._count(dataset_label, method_label, code)
            try:
                self._send_error(exc, code=code)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-error; nothing to salvage

    def _count(self, dataset: str, method: str, code: int) -> None:
        self.service.m_requests.inc(
            dataset=dataset, method=method, code=str(code)
        )

    # -- verbs ----------------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self):  # noqa: N802
        self._route("POST")

    def do_PUT(self):  # noqa: N802
        self._route("PUT")

    def do_DELETE(self):  # noqa: N802
        self._route("DELETE")
