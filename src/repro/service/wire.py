"""JSON wire codecs for the query service.

The daemon speaks a small, versioned JSON protocol:

* a **request** is ``{"query": [[x, y], ...], "spec": {...}}`` where
  ``spec`` is :meth:`repro.QuerySpec.to_dict` output (every field
  optional except ``method``; omitted fields take the spec defaults);
* a **result** is :func:`encode_result` output — the method's answers
  in its answer shape's JSON form (:mod:`repro.methods`), plus the :class:`repro.QueryResult` masks, timings,
  and plan.

Python's ``json`` round-trips IEEE doubles exactly (``repr`` shortest
form), so a decoded result carries bit-identical floats to the engine's
answer — ``tests/test_service_wire.py`` and the wire path of
``tests/test_serving_paths.py`` assert it.

Malformed input never reaches the engine half-parsed: every decoder
validates shape and types and raises the library's existing error
types (:class:`repro.errors.QueryError` for bad specs/queries,
:class:`repro.errors.DistributionError` for bad point encodings), which
the HTTP layer maps to 400.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

import numpy as np

from ..engine import QueryResult, QuerySpec
from ..errors import QueryError
from ..geometry.kernels import as_query_array
from ..io import json_safe
from ..methods import METHODS

__all__ = [
    "SCHEMA_VERSION",
    "decode_query",
    "decode_request",
    "decode_result",
    "decode_spec",
    "encode_result",
    "encode_spec",
]

#: Version stamped on every result payload; requests may carry it and
#: are rejected on mismatch (a client speaking a future schema should
#: fail loudly, not get silently misread).
SCHEMA_VERSION = 1


# -- specs --------------------------------------------------------------------

def encode_spec(spec: QuerySpec) -> Dict[str, object]:
    """``QuerySpec`` -> JSON-compatible dict (see ``QuerySpec.to_dict``)."""
    return spec.to_dict()


def decode_spec(obj) -> QuerySpec:
    """JSON dict -> validated ``QuerySpec`` (unknown keys rejected)."""
    return QuerySpec.from_dict(obj)


# -- queries ------------------------------------------------------------------

def decode_query(obj) -> np.ndarray:
    """Decode the ``"query"`` payload into an ``(m, 2)`` float array.

    Accepts a list of ``[x, y]`` pairs (or a single pair).  Ragged
    rows, non-numeric entries, NaN/inf coordinates, and wrong shapes
    raise :class:`repro.errors.QueryError`.
    """
    if not isinstance(obj, list):
        raise QueryError(
            f"'query' must be a JSON array of [x, y] pairs, "
            f"got {type(obj).__name__}"
        )
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"malformed query rows: {exc}") from exc
    # as_query_array applies the library's full validation (shape,
    # NaN/inf rejection) and normalises a single pair to (1, 2).
    return as_query_array(arr)


# -- requests -----------------------------------------------------------------

def decode_request(payload) -> Tuple[QuerySpec, np.ndarray]:
    """Decode one query-request body into ``(spec, Q)``.

    ``payload`` may be raw ``bytes`` / ``str`` JSON or an already-parsed
    object.  The body must be a JSON object with a ``"query"`` array;
    ``"spec"`` defaults to ``{"method": "expected_nn"}``; an optional
    ``"schema"`` must match :data:`SCHEMA_VERSION`.
    """
    if isinstance(payload, (bytes, bytearray)):
        try:
            payload = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise QueryError(f"request body is not UTF-8: {exc}") from exc
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise QueryError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise QueryError(
            f"request body must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    schema = payload.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise QueryError(
            f"unsupported wire schema {schema!r}; "
            f"this server speaks {SCHEMA_VERSION}"
        )
    unknown = sorted(set(payload) - {"schema", "query", "spec"})
    if unknown:
        raise QueryError(f"unknown request fields: {unknown}")
    if "query" not in payload:
        raise QueryError("request requires a 'query' array")
    spec = decode_spec(payload.get("spec", {"method": "expected_nn"}))
    return spec, decode_query(payload["query"])


# -- results ------------------------------------------------------------------

def _mask(value, dtype) -> Optional[np.ndarray]:
    return None if value is None else np.asarray(value, dtype=dtype)


def encode_result(result: QueryResult) -> Dict[str, object]:
    """``QueryResult`` -> JSON-compatible dict (exact float fidelity)."""
    return {
        "schema": SCHEMA_VERSION,
        "method": result.spec.method,
        "spec": encode_spec(result.spec),
        "answers": METHODS[result.spec.method].shape.encode(result.answers),
        "values": json_safe(result.values),
        "fallback": json_safe(result.fallback),
        "certificate": json_safe(result.certificate),
        "degraded": json_safe(result.degraded),
        "m": int(result.m),
        "n": int(result.n),
        "generation": int(result.generation),
        "elapsed": float(result.elapsed),
        "cached": bool(result.cached),
        "plan": json_safe(result.plan),
        "diagnostics": json_safe(result.diagnostics),
    }


def decode_result(obj) -> QueryResult:
    """JSON dict -> ``QueryResult`` (the client-side inverse of
    :func:`encode_result`; floats round-trip bit-identically)."""
    if not isinstance(obj, dict):
        raise QueryError(
            f"result encoding must be a JSON object, got {type(obj).__name__}"
        )
    schema = obj.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise QueryError(
            f"unsupported wire schema {schema!r}; "
            f"this client speaks {SCHEMA_VERSION}"
        )
    try:
        spec = decode_spec(obj["spec"])
        m = int(obj["m"])
        n = int(obj["n"])
        answers = obj["answers"]
        if not isinstance(answers, list) or len(answers) != m:
            raise QueryError(f"result answers must be a list of {m} rows")
        return QueryResult(
            spec=spec,
            answers=METHODS[spec.method].shape.decode(answers, spec, n),
            values=_mask(obj.get("values"), np.float64),
            fallback=_mask(obj.get("fallback"), bool),
            certificate=_mask(obj.get("certificate"), np.float64),
            degraded=_mask(obj.get("degraded"), bool),
            m=m,
            n=n,
            generation=int(obj.get("generation", 0)),
            elapsed=float(obj.get("elapsed", 0.0)),
            cached=bool(obj.get("cached", False)),
            plan=dict(obj.get("plan") or {}),
            diagnostics=dict(obj.get("diagnostics") or {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, QueryError):
            raise
        raise QueryError(f"malformed result encoding: {exc}") from exc
