"""The coalescing request queue: correctness of merged batches.

The load-bearing property of PR 9: requests coalesced into one planner
batch receive answers **bit-identical** to running each request alone
on a serial ``Engine`` — for every coalescible method, under a real
multi-threaded mixed-tenant storm, and through the result cache.  The
deterministic ``start=False`` mode pins exact batch compositions so the
tests assert *that coalescing actually happened*, not merely that
answers agree.

Also covered: the never-coalesce exclusions (deadlines, diagnostics,
adaptive / unseeded Monte-Carlo), depth-based admission control, and
drain / close semantics.
"""

import threading

import numpy as np
import pytest

from repro import (
    Engine,
    QueryError,
    QuerySpec,
    QueueFullError,
    ServiceUnavailableError,
    UnknownDatasetError,
)
from repro.constructions import random_discrete_points, random_queries
from repro.service import DatasetRegistry, RequestQueue, coalescible

BBOX = (0, 0, 100, 100)


def _points(n=40, seed=0):
    return random_discrete_points(n, 4, seed=seed)


def _Q(m, seed):
    return np.asarray(random_queries(m, seed=seed, bbox=BBOX))


@pytest.fixture()
def registry():
    reg = DatasetRegistry()
    reg.create("alpha", points=_points(40, seed=1))
    reg.create("beta", points=_points(25, seed=2))
    yield reg
    reg.close_all()


def _assert_identical(result, reference, spec):
    __tracebackhide__ = True
    if spec.method in ("expected_nn", "expected_knn"):
        assert np.array_equal(
            np.asarray(result.answers), np.asarray(reference.answers)
        )
    elif spec.method == "nonzero":
        assert [frozenset(r) for r in result.answers] == [
            frozenset(r) for r in reference.answers
        ]
    else:  # probability dicts: bit-identical floats required
        assert result.answers == reference.answers
    if reference.values is not None:
        assert np.array_equal(result.values, reference.values)


# -- coalescibility policy ----------------------------------------------------


def test_coalescible_policy():
    assert coalescible(QuerySpec(method="expected_nn"))
    assert coalescible(QuerySpec(method="mc_pnn", s=32, seed=3))
    assert not coalescible(
        QuerySpec(method="expected_nn", deadline_s=5.0)
    ), "deadline queries must execute solo"
    assert not coalescible(
        QuerySpec(method="expected_nn", diagnostics=True)
    ), "diagnostics describe the whole executed batch"
    assert not coalescible(
        QuerySpec(method="mc_pnn", s=32, seed=3, adaptive=True, tol=0.05)
    ), "adaptive MC couples rows through early stopping"
    assert not coalescible(
        QuerySpec(method="mc_pnn", s=32, seed=None)
    ), "unseeded MC draws cannot be reproduced"


# -- deterministic batch composition ------------------------------------------


SPECS = [
    QuerySpec(method="expected_nn"),
    QuerySpec(method="nonzero"),
    QuerySpec(method="threshold", tau=0.1),
    QuerySpec(method="expected_knn", k=3),
    QuerySpec(method="mc_pnn", s=64, seed=11),
    QuerySpec(method="expected_nn", tier="approx", eps=0.05),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.method}-{s.tier}")
def test_coalesced_batch_bit_identical_to_serial(registry, spec):
    queue = RequestQueue(registry, start=False)
    Qs = [_Q(m, seed=100 + m) for m in (1, 3, 2, 4)]
    tickets = [queue.submit("alpha", spec, Q) for Q in Qs]
    queue.start()
    results = [t.wait(60) for t in tickets]
    queue.close()

    # One merged batch actually executed.
    assert queue.counters["batches"] == 1
    assert queue.counters["coalesced_batches"] == 1
    assert queue.counters["coalesced_requests"] == 4
    serial = Engine(_points(40, seed=1))
    for Q, res in zip(Qs, results):
        assert res.plan["coalesced"] == 4
        assert res.m == len(Q)
        _assert_identical(res, serial.query(Q, spec), spec)


def test_mixed_specs_group_separately(registry):
    queue = RequestQueue(registry, start=False)
    nn, nz = QuerySpec(method="expected_nn"), QuerySpec(method="nonzero")
    t1 = queue.submit("alpha", nn, _Q(2, 1))
    t2 = queue.submit("alpha", nz, _Q(2, 2))
    t3 = queue.submit("alpha", nn, _Q(2, 3))
    t4 = queue.submit("beta", nn, _Q(2, 4))
    queue.start()
    results = [t.wait(60) for t in (t1, t2, t3, t4)]
    queue.close()
    # nn@alpha x2 coalesce; nonzero@alpha and nn@beta each run solo.
    assert queue.counters["batches"] == 3
    assert results[0].plan["coalesced"] == 2
    assert results[2].plan["coalesced"] == 2
    assert "coalesced" not in results[1].plan
    assert "coalesced" not in results[3].plan


def test_deadline_requests_never_coalesce(registry):
    queue = RequestQueue(registry, start=False)
    spec = QuerySpec(method="expected_nn", deadline_s=60.0)
    tickets = [queue.submit("alpha", spec, _Q(2, s)) for s in (1, 2, 3)]
    queue.start()
    for t in tickets:
        assert "coalesced" not in t.wait(60).plan
    queue.close()
    assert queue.counters["coalesced_batches"] == 0
    assert queue.counters["batches"] == 3


def test_deadline_and_cacheable_requests_stay_apart(registry):
    """A deadline query sandwiched between cacheable ones must not be
    merged into their batch (nor break their coalescing)."""
    queue = RequestQueue(registry, start=False)
    plain = QuerySpec(method="expected_nn")
    deadline = QuerySpec(method="expected_nn", deadline_s=60.0)
    t1 = queue.submit("alpha", plain, _Q(2, 1))
    t2 = queue.submit("alpha", deadline, _Q(2, 2))
    t3 = queue.submit("alpha", plain, _Q(2, 3))
    queue.start()
    r1, r2, r3 = (t.wait(60) for t in (t1, t2, t3))
    queue.close()
    assert r1.plan.get("coalesced") == 2
    assert r3.plan.get("coalesced") == 2
    assert "coalesced" not in r2.plan
    assert queue.counters["batches"] == 2


def test_batch_caps_respected(registry):
    queue = RequestQueue(
        registry, start=False, max_batch_requests=2, max_batch_rows=100
    )
    spec = QuerySpec(method="expected_nn")
    tickets = [queue.submit("alpha", spec, _Q(1, s)) for s in range(5)]
    queue.start()
    for t in tickets:
        assert t.wait(60).plan.get("coalesced", 1) <= 2
    queue.close()
    assert queue.counters["batches"] == 3  # 2 + 2 + 1

    queue2 = RequestQueue(registry, start=False, max_batch_rows=4)
    tickets = [queue2.submit("alpha", spec, _Q(3, s)) for s in range(3)]
    queue2.start()
    for t in tickets:
        # 3 + 3 > 4 rows: every request executes alone.
        assert "coalesced" not in t.wait(60).plan
    queue2.close()


# -- the storm ----------------------------------------------------------------


def test_concurrent_mixed_tenant_storm_bit_identical(registry):
    """64 threads, two tenants, four methods, tiny batches — every
    answer equals the serial engine's, and coalescing demonstrably
    kicked in.  The threads submit together behind a barrier to a
    queue whose worker starts only once every ticket is in, so the
    coalescing does not depend on how the host schedules them."""
    specs = [
        QuerySpec(method="expected_nn"),
        QuerySpec(method="nonzero"),
        QuerySpec(method="threshold", tau=0.1),
        QuerySpec(method="mc_pnn", s=32, seed=5),
    ]
    rng = np.random.default_rng(0)
    jobs = []
    for i in range(64):
        jobs.append(
            (
                "alpha" if i % 3 else "beta",
                specs[i % len(specs)],
                _Q(int(rng.integers(1, 5)), seed=1000 + i),
            )
        )

    queue = RequestQueue(registry, start=False)
    tickets = [None] * len(jobs)
    errors = []
    barrier = threading.Barrier(len(jobs))

    def worker(i):
        name, spec, Q = jobs[i]
        try:
            barrier.wait(60)
            tickets[i] = queue.submit(name, spec, Q)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append((i, exc))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    queue.start()
    out = [t.wait(120) for t in tickets]
    queue.close()

    serial = {
        "alpha": Engine(_points(40, seed=1)),
        "beta": Engine(_points(25, seed=2)),
    }
    for i, (name, spec, Q) in enumerate(jobs):
        assert out[i].m == len(Q)
        _assert_identical(out[i], serial[name].query(Q, spec), spec)
    # The storm must have actually exercised the coalescing path.
    assert queue.counters["coalesced_batches"] >= 1
    assert queue.counters["batches"] < len(jobs)
    assert queue.counters["completed"] == len(jobs)


# -- result-cache interaction -------------------------------------------------


def test_result_cache_serves_repeated_coalesced_shapes(registry):
    """The engine's result cache keys on the *merged* batch bytes: an
    identical group coalesced twice hits the cache the second time, and
    the split answers are still per-request correct."""
    spec = QuerySpec(method="expected_nn")
    Qs = [_Q(2, 1), _Q(3, 2)]

    queue = RequestQueue(registry, start=False)
    tickets = [queue.submit("alpha", spec, Q) for Q in Qs]
    queue.start()
    first = [t.wait(60) for t in tickets]
    queue.close()
    assert all(not r.cached for r in first)

    queue2 = RequestQueue(registry, start=False)
    tickets = [queue2.submit("alpha", spec, Q) for Q in Qs]
    queue2.start()
    second = [t.wait(60) for t in tickets]
    queue2.close()
    assert all(r.cached for r in second), "merged batch should hit the cache"
    serial = Engine(_points(40, seed=1))
    for Q, res in zip(Qs, second):
        _assert_identical(res, serial.query(Q, spec), spec)


def test_solo_and_coalesced_answers_agree_with_cache_warm(registry):
    """Warming the cache with a solo query must not contaminate a later
    coalesced batch containing the same rows (different merged bytes →
    different cache key → fresh, still-identical execution)."""
    spec = QuerySpec(method="expected_nn")
    Qa, Qb = _Q(2, 7), _Q(2, 8)
    ds = registry.get("alpha")
    solo = ds.engine.query(Qa, spec)

    queue = RequestQueue(registry, start=False)
    t1 = queue.submit("alpha", spec, Qa)
    t2 = queue.submit("alpha", spec, Qb)
    queue.start()
    r1, r2 = t1.wait(60), t2.wait(60)
    queue.close()
    assert r1.plan["coalesced"] == 2
    _assert_identical(r1, solo, spec)
    _assert_identical(r2, ds.engine.query(Qb, spec), spec)


# -- admission control and lifecycle ------------------------------------------


def test_queue_full_rejects_with_429_semantics(registry):
    queue = RequestQueue(registry, start=False, max_depth=3)
    spec = QuerySpec(method="expected_nn")
    for s in range(3):
        queue.submit("alpha", spec, _Q(1, s))
    with pytest.raises(QueueFullError) as err:
        queue.submit("alpha", spec, _Q(1, 99))
    assert err.value.limit == 3
    assert queue.counters["rejected"] == 1
    queue.start()
    queue.drain(60)


def test_unknown_dataset_rejected_before_admission(registry):
    queue = RequestQueue(registry, start=False)
    with pytest.raises(UnknownDatasetError):
        queue.submit("ghost", QuerySpec(method="expected_nn"), _Q(1, 0))
    assert queue.depth == 0
    queue.close()


def test_malformed_query_rejected_before_admission(registry):
    queue = RequestQueue(registry, start=False)
    with pytest.raises(QueryError):
        queue.submit("alpha", QuerySpec(method="expected_nn"), [[1.0]])
    assert queue.depth == 0
    queue.close()


def test_failed_execution_propagates_to_every_ticket(registry):
    queue = RequestQueue(registry, start=False)
    # threshold over continuous points would fail; here: invalid subset.
    spec = QuerySpec(method="expected_nn", subset=(999,))
    t1 = queue.submit("alpha", spec, _Q(1, 0))
    t2 = queue.submit("alpha", spec, _Q(1, 1))
    queue.start()
    for t in (t1, t2):
        with pytest.raises(QueryError):
            t.wait(60)
    queue.close()
    assert queue.counters["failed"] == 2


def test_drain_serves_backlog_then_rejects(registry):
    queue = RequestQueue(registry, start=False)
    spec = QuerySpec(method="expected_nn")
    tickets = [queue.submit("alpha", spec, _Q(2, s)) for s in range(4)]
    queue.start()
    assert queue.drain(60) is True
    for t in tickets:
        t.wait(1)  # already served
    with pytest.raises(ServiceUnavailableError):
        queue.submit("alpha", spec, _Q(1, 9))
    assert queue.counters["completed"] == 4


def test_close_rejects_backlog_immediately(registry):
    queue = RequestQueue(registry, start=False)
    spec = QuerySpec(method="expected_nn")
    tickets = [queue.submit("alpha", spec, _Q(1, s)) for s in range(3)]
    queue.close()
    for t in tickets:
        with pytest.raises(ServiceUnavailableError):
            t.wait(1)


def test_coalesce_disabled_runs_everything_solo(registry):
    queue = RequestQueue(registry, start=False, coalesce=False)
    spec = QuerySpec(method="expected_nn")
    tickets = [queue.submit("alpha", spec, _Q(1, s)) for s in range(4)]
    queue.start()
    for t in tickets:
        assert "coalesced" not in t.wait(60).plan
    queue.close()
    assert queue.counters["batches"] == 4
    assert queue.counters["coalesced_batches"] == 0
