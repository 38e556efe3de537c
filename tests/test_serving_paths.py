"""Every serving path against the exact tier, for every query method.

One differential check walks the method table
(:data:`repro.methods.METHODS`) over the tie-heavy lattice data of
``tests/test_csr_reducers.py``: duplicate models, coincident locations
and equal distances across owners.  Each way a query can be served must
return the exact tier's answers bit for bit:

* the pruned tier;
* the approx tier's fallback rows (methods with an approx tier);
* a candidate subset that covers every index;
* a 2-shard :class:`repro.ShardedEngine` (methods with a shard protocol);
* a coalesced :class:`repro.service.RequestQueue` batch;
* a wire round trip;
* a POST to a loopback :class:`repro.service.ServiceServer`;
* a snapshot restore;
* a write-ahead-log recovery;
* the pruned tier after small writes, which carry the dual tree forward
  instead of rebuilding it.

Extra disks put lattice rows on every branch of the closed-form disk
expectation: at a center, exactly on a rim, inside, just outside, at
``d = 1.5 R`` where the series takes over, and far away.
"""

import json
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro import Engine, QuerySpec, ShardedEngine, UniformDiskPoint
from repro.methods import METHODS
from repro.resilience.retry import RetryPolicy
from repro.service import DatasetRegistry, RequestQueue, ServiceServer, wire

from test_csr_reducers import lattice_points, lattice_queries

#: Spec parameters per method, and whether its exact tier needs discrete
#: models (the Eq. (2) sweep).  Every table entry must appear here.
PARAMS = {
    "expected_nn": ({}, False),
    "nonzero": ({}, False),
    "threshold": ({"tau": 0.1}, True),
    "expected_knn": ({"k": 3}, False),
    "mc_pnn": ({"s": 32, "seed": 5}, False),
}


#: Disks whose centers and rims sit on lattice query rows (the rows
#: step by 0.5 over [-0.5, 6]).
BRANCH_DISKS = [
    UniformDiskPoint((4.5, 0.5), 1.0),
    UniformDiskPoint((1.5, 4.5), 1.5),
    UniformDiskPoint((5.5, 5.5), 0.5),
]


def _lattice():
    return lattice_points() + BRANCH_DISKS


def _points(name):
    pts = _lattice()
    return [p for p in pts if p.is_discrete] if PARAMS[name][1] else pts


def _spec(name, tier="pruned", **extra):
    return QuerySpec(name, tier=tier, **PARAMS[name][0], **extra)


def _rows(answers, rows):
    if isinstance(answers, np.ndarray):
        return answers[rows]
    return [answers[r] for r in rows]


def _assert_same(got, want, rows=None, what=""):
    __tracebackhide__ = True
    if rows is None:
        rows = np.arange(want.m)
    g, w = _rows(got.answers, rows), _rows(want.answers, rows)
    if isinstance(w, np.ndarray):
        assert np.array_equal(np.asarray(g), w), what
    else:
        assert list(g) == list(w), what
    if want.values is not None:
        assert np.array_equal(got.values[rows], want.values[rows]), what


@pytest.fixture(scope="module")
def cluster():
    retry = RetryPolicy(attempts=2, base_delay_s=0.01, max_delay_s=0.05)
    with ShardedEngine(_lattice(), shards=2, retry=retry) as ce:
        yield ce


@pytest.fixture(scope="module")
def http():
    """A loopback HTTP server holding both lattice datasets."""
    registry = DatasetRegistry()
    registry.create("lattice", points=_lattice())
    registry.create("discrete", points=_points("threshold"))
    server = ServiceServer(registry, port=0).start()
    yield server
    server.drain(10)


def _post(server, name, Q):
    dataset = "discrete" if PARAMS[name][1] else "lattice"
    body = json.dumps({"query": Q.tolist(), "spec": _spec(name).to_dict()})
    req = urllib.request.Request(
        f"{server.url}/v1/datasets/{dataset}/query",
        data=body.encode(), method="POST",
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return wire.decode_result(json.loads(resp.read()))


def test_table_is_covered():
    assert set(PARAMS) == set(METHODS)


def test_branch_disks_cover_every_kernel_branch():
    Q = lattice_queries()
    points = _points("expected_knn")
    # The kNN pruned tier evaluates (row, disk) survivors on each
    # branch: the disks' own pairs, with their center distances.
    k = PARAMS["expected_knn"][0]["k"]
    indptr, cols = Engine(points).planner().candidate_csr(
        Q, k=k, criterion="expected"
    )
    rows = np.repeat(np.arange(Q.shape[0]), np.diff(indptr))
    hit = set()
    for i, disk in enumerate(BRANCH_DISKS, start=len(points) - len(BRANCH_DISKS)):
        c, R = disk.disk.center, disk.disk.radius
        sel = rows[cols == i]
        d = np.hypot(Q[sel, 0] - c.x, Q[sel, 1] - c.y)
        hit.update(
            name
            for name, on in (
                ("center", d == 0.0),
                ("inside", (d > 0.0) & (d < R)),
                ("rim", d == R),
                ("elliptic outside", (d > R) & (d < 1.5 * R)),
                ("series edge", d == 1.5 * R),
                ("series", d > 1.5 * R),
            )
            if np.any(on)
        )
    assert len(hit) == 6, hit


@pytest.mark.parametrize("name", sorted(METHODS))
def test_every_serving_path_matches_exact(name, cluster, http, tmp_path):
    method = METHODS[name]
    points = _points(name)
    Q = lattice_queries()
    engine = Engine(points)
    exact = engine.query(Q, _spec(name, "exact"))
    assert exact.m == Q.shape[0]

    _assert_same(engine.query(Q, _spec(name)), exact, what="pruned")

    if method.approx:
        res = engine.query(Q, _spec(name, "approx", eps=0.01))
        rows = np.flatnonzero(res.fallback)
        assert rows.size, "no fallback rows to compare"
        _assert_same(res, exact, rows, what="approx fallback rows")

    every = np.ones(len(points), dtype=bool)
    _assert_same(
        engine.query(Q, _spec(name, subset=every)), exact, what="subset"
    )

    if method.report is not None:
        assert len(cluster) == len(points)
        for tier in ("exact", "pruned"):
            res = cluster.query(Q, _spec(name, tier))
            assert res.plan["route"].startswith("cluster/")
            _assert_same(res, exact, what=f"2-shard cluster, {tier}")

    registry = DatasetRegistry()
    try:
        registry.create("lattice", points=points)
        queue = RequestQueue(registry, start=False)
        cuts = [0, 1, 40, 90, Q.shape[0]]
        tickets = [
            queue.submit("lattice", _spec(name), Q[lo:hi])
            for lo, hi in zip(cuts, cuts[1:])
        ]
        queue.start()
        parts = [t.wait(60) for t in tickets]
        queue.close()
    finally:
        registry.close_all()
    assert all(p.plan["coalesced"] == len(tickets) for p in parts)
    coalesced = SimpleNamespace(
        answers=method.shape.concat([p.answers for p in parts]),
        values=(
            np.concatenate([p.values for p in parts])
            if method.values else None
        ),
    )
    _assert_same(coalesced, exact, what="coalesced queue batch")

    pruned = engine.query(Q, _spec(name))
    restored = wire.decode_result(
        json.loads(json.dumps(wire.encode_result(pruned)))
    )
    _assert_same(restored, exact, what="wire round trip")
    _assert_same(_post(http, name, Q), exact, what="HTTP")

    path = str(tmp_path / "snap.npz")
    engine.save(path)
    _assert_same(
        Engine.load(path).query(Q, _spec(name)), exact, what="snapshot"
    )

    durable_dir = str(tmp_path / "durable")
    half = len(points) // 2
    durable = Engine.open_durable(durable_dir, points[:half])
    durable.insert(points[half:])
    durable.close()
    recovered = Engine.open_durable(durable_dir)
    try:
        _assert_same(
            recovered.query(Q, _spec(name)), exact, what="WAL recovery"
        )
    finally:
        recovered.close()


@pytest.mark.parametrize("name", sorted(METHODS))
def test_pruned_tier_after_writes_matches_fresh_exact(name):
    # The write leg: small inserts (duplicates included) and removes on
    # the tie-heavy lattice carry the column store and the dual tree
    # forward instead of rebuilding them on the next read.  The pruned
    # tier must still answer exactly like a freshly built engine's exact
    # tier.
    points = _points(name)
    Q = lattice_queries()
    engine = Engine(points[:-3])
    engine.query(Q, _spec(name))  # builds the tree
    built = ["columns", "dual_tree"]
    assert set(built) <= set(engine.stats()["built_indexes"])
    writes = [
        ("insert", points[-3:-1]),
        ("remove", [0, 7]),
        ("insert", [points[-1], points[4]]),  # points[4] twice now
        ("remove", [len(points) - 4]),
    ]
    for op, arg in writes:
        getattr(engine, op)(arg)
        assert engine.stats()["built_indexes"] == built, op
        exact = Engine(engine.points).query(Q, _spec(name, "exact"))
        _assert_same(engine.query(Q, _spec(name)), exact, what=f"after {op}")
