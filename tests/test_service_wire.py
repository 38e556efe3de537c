"""Wire codecs: ``QuerySpec`` dict round-trips and JSON result fidelity.

PR 9 satellites:

* ``QuerySpec.to_dict`` / ``from_dict`` round-trip every frozen field
  faithfully across the full method x tier grid (property-tested), and
  ``from_dict`` rejects unknown keys and non-dict payloads.
* ``encode_result`` -> ``json.dumps`` -> ``decode_result`` reproduces
  the engine's answers **bit-identically** for every method (JSON
  round-trips IEEE doubles exactly).
* Malformed requests are rejected with the library's own error types
  before anything reaches an engine.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, QueryError, QuerySpec
from repro.constructions import random_discrete_points, random_queries
from repro.service import wire

METHODS = ("expected_nn", "nonzero", "threshold", "expected_knn", "mc_pnn")
TIERS = ("exact", "pruned", "approx")


def _spec_for(method, tier, **extra):
    kwargs = {"method": method, "tier": tier}
    if tier == "approx":
        kwargs["eps"] = 0.05
    if method == "expected_knn":
        kwargs["k"] = 3
    if method == "threshold":
        kwargs["tau"] = 0.1
    if method == "mc_pnn":
        kwargs.setdefault("s", 64)
        kwargs.setdefault("seed", 7)
    kwargs.update(extra)
    return QuerySpec(**kwargs)


# -- spec round-trip ----------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("tier", TIERS)
def test_spec_round_trip_grid(method, tier):
    if tier == "approx" and method not in ("expected_nn", "nonzero", "threshold"):
        pytest.skip(f"{method} has no approx tier")
    spec = _spec_for(method, tier)
    encoded = spec.to_dict()
    # Must survive an actual JSON round trip, not just dict identity.
    decoded = QuerySpec.from_dict(json.loads(json.dumps(encoded)))
    assert decoded == spec
    assert decoded.cache_key() == spec.cache_key()


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    tier=st.sampled_from(("exact", "pruned")),
    k=st.integers(1, 8),
    tau=st.floats(0.0, 0.99, allow_nan=False),
    s=st.integers(1, 512),
    seed=st.integers(0, 2**31),
    diagnostics=st.booleans(),
    deadline=st.one_of(st.none(), st.floats(0.001, 60.0, allow_nan=False)),
)
def test_spec_round_trip_property(
    method, tier, k, tau, s, seed, diagnostics, deadline
):
    spec = _spec_for(
        method,
        tier,
        k=k if method == "expected_knn" else None,
        tau=tau if method == "threshold" else None,
        s=s if method == "mc_pnn" else None,
        seed=seed if method == "mc_pnn" else None,
        diagnostics=diagnostics,
        deadline_s=deadline,
    )
    assert QuerySpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_spec_round_trip_subset_tuple():
    spec = QuerySpec(method="expected_nn", subset=(0, 2, 5))
    restored = QuerySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored.subset == (0, 2, 5)
    assert restored == spec


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(QueryError, match="unknown QuerySpec fields"):
        QuerySpec.from_dict({"method": "expected_nn", "wat": 1})


def test_spec_from_dict_rejects_non_dict():
    with pytest.raises(QueryError, match="JSON object"):
        QuerySpec.from_dict(["expected_nn"])


def test_spec_from_dict_requires_method():
    with pytest.raises(QueryError, match="method"):
        QuerySpec.from_dict({"tier": "pruned"})


def test_spec_from_dict_validates_eagerly():
    with pytest.raises(QueryError):
        QuerySpec.from_dict({"method": "no_such_method"})


def test_spec_to_dict_rejects_live_generator_seed():
    spec = QuerySpec(method="mc_pnn", s=8, seed=np.random.default_rng(0))
    with pytest.raises(QueryError, match="seed"):
        spec.to_dict()


# -- result round-trip --------------------------------------------------------


@pytest.fixture(scope="module")
def engine():
    return Engine(random_discrete_points(40, 4, seed=11))


@pytest.fixture(scope="module")
def queries():
    return np.asarray(random_queries(6, seed=5, bbox=(0, 0, 100, 100)))


@pytest.mark.parametrize("method", METHODS)
def test_result_json_round_trip_bit_identical(engine, queries, method):
    spec = _spec_for(method, "pruned")
    # A zero-row batch is a valid request, so its result must decode.
    for Q in (queries, queries[:0]):
        result = engine.query(Q, spec)
        over_the_wire = json.loads(json.dumps(wire.encode_result(result)))
        restored = wire.decode_result(over_the_wire)

        assert restored.spec == spec
        assert restored.m == result.m and restored.n == result.n
        assert restored.generation == result.generation
        if method in ("expected_nn", "expected_knn"):
            assert np.array_equal(restored.answers, np.asarray(result.answers))
        elif method == "nonzero":
            assert list(restored.answers) == [
                frozenset(r) for r in result.answers
            ]
        else:  # dict-valued probabilities: bit-identical floats
            assert len(restored.answers) == len(result.answers)
            for got, want in zip(restored.answers, result.answers):
                assert got == {int(i): float(p) for i, p in want.items()}
        if result.values is not None:
            assert np.array_equal(restored.values, result.values)


def test_result_round_trip_masks(engine, queries):
    spec = _spec_for("expected_nn", "approx")
    result = engine.query(queries, spec)
    restored = wire.decode_result(json.loads(json.dumps(wire.encode_result(result))))
    assert np.array_equal(restored.fallback, result.fallback)
    assert np.array_equal(restored.certificate, result.certificate)


# -- request decoding ---------------------------------------------------------


def test_decode_request_defaults_to_expected_nn():
    spec, Q = wire.decode_request({"query": [[1.0, 2.0]]})
    assert spec.method == "expected_nn"
    assert Q.shape == (1, 2)


def test_decode_request_from_bytes():
    body = json.dumps(
        {"query": [[0.0, 0.0], [1.0, 1.0]], "spec": {"method": "nonzero"}}
    ).encode()
    spec, Q = wire.decode_request(body)
    assert spec.method == "nonzero"
    assert Q.shape == (2, 2)


@pytest.mark.parametrize(
    "payload",
    [
        b"not json",
        b'"just a string"',
        b"[]",
        json.dumps({"spec": {"method": "expected_nn"}}).encode(),  # no query
        json.dumps({"query": "nope"}).encode(),
        json.dumps({"query": [[1.0]]}).encode(),  # wrong width
        json.dumps({"query": [[1.0, 2.0], [3.0]]}).encode(),  # ragged
        json.dumps({"query": [[1.0, 2.0]], "extra": 1}).encode(),
        json.dumps({"query": [[1.0, 2.0]], "schema": 99}).encode(),
        json.dumps(
            {"query": [[1.0, 2.0]], "spec": {"method": "expected_nn", "x": 1}}
        ).encode(),
    ],
)
def test_decode_request_rejects_malformed(payload):
    with pytest.raises(QueryError):
        wire.decode_request(payload)


@pytest.mark.parametrize("method", ["no_such_method", ["expected_nn"], {}, 3])
def test_decode_request_rejects_bad_method_names(method):
    # Unknown and unhashable names alike are a 400, never a KeyError or
    # TypeError from the method-table lookup.
    with pytest.raises(QueryError, match="unknown query method"):
        wire.decode_request({"query": [[1.0, 2.0]], "spec": {"method": method}})


def test_decode_request_rejects_nan_coordinates():
    with pytest.raises(QueryError):
        wire.decode_query([[1.0, None]])


def test_decode_result_rejects_garbage():
    with pytest.raises(QueryError):
        wire.decode_result([1, 2, 3])
    with pytest.raises(QueryError):
        wire.decode_result({"schema": 1, "spec": {"method": "expected_nn"}})
