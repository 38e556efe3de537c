"""Per-query state is scoped to the query, not to the process.

Execution overrides (:func:`repro.config.execution` and the
``QuerySpec`` fields), deadline scopes and fault scopes hold for the
thread that opened them and for the pool tiles it fans out, and for no
other thread:

* **Deadlines** — a query never times out on another thread's deadline.
* **Execution** — overlapping override blocks in two threads each read
  their own settings, a third thread reads the defaults, and
  :data:`repro.config.EXECUTION` (the process default) is never written.
* **Faults** — :func:`faults.suppressed` in one thread does not silence
  an injected fault in another.
* **Inheritance** — every ``map_tiles`` tile on the thread backend reads
  the submitting thread's settings, deadline and fault collectors.
* **Shared counters** — the tiles of one query share its deadline's
  progress counts and the fault plan's firing counts; neither loses an
  update when the interpreter switches threads every microsecond.

The cross-thread orderings are forced with :class:`threading.Event`\\ s
(and blocking wrappers around ``Engine._dispatch``, which runs inside
the query's override and deadline scopes), so the tests are
deterministic.
"""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro import Engine, QuerySpec, QueryTimeoutError, config
from repro.constructions import random_disk_points, random_queries
from repro.core import parallel
from repro.errors import WorkerCrashError
from repro.resilience import FaultSpec, faults
from repro.resilience.deadline import active_deadline, check_deadline, deadline_scope

WAIT_S = 30.0


def _points(n=120, seed=3):
    return random_disk_points(n, seed=seed, box=40.0)


def _queries(m=24, seed=7):
    return np.asarray(random_queries(m, seed, (0.0, 0.0, 40.0, 40.0)), dtype=float)


def _run_threads(*targets):
    """Run each target in its own thread; re-raise the first failure."""
    errors = []

    def guarded(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,)) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT_S)
        assert not t.is_alive(), "a thread hung"
    if errors:
        raise errors[0]


def _wrap_dispatch(engine, before):
    """Make ``engine`` call ``before()`` inside its query scopes, just
    before the planner runs."""
    real = engine._dispatch

    def dispatch(spec, Q, base):
        before()
        return real(spec, Q, base)

    engine._dispatch = dispatch


class TestDeadlines:
    def test_checkpoint_reads_only_its_own_scope(self):
        # The 60 s scope opens first and the 1 ms scope second, so a
        # process-wide "innermost scope" would be the expired one.
        long_open, short_expired, checked = (threading.Event() for _ in range(3))
        seen = {}

        def long():
            with deadline_scope(60.0) as dl:
                long_open.set()
                assert short_expired.wait(WAIT_S)
                try:
                    check_deadline("parallel.tile")
                finally:
                    checked.set()
                seen["long"] = active_deadline() is dl

        def short():
            assert long_open.wait(WAIT_S)
            with deadline_scope(0.001) as dl:
                time.sleep(0.01)
                short_expired.set()
                assert checked.wait(WAIT_S)
                seen["short"] = active_deadline() is dl
                with pytest.raises(QueryTimeoutError):
                    check_deadline("parallel.tile")

        _run_threads(long, short)
        assert seen == {"long": True, "short": True}
        assert active_deadline() is None

    def test_generous_engine_query_survives_another_threads_expiry(self):
        # The 100 s query opens its scope, waits until the other
        # thread's 2 ms query has opened its own, then runs; the 2 ms
        # queries all expire.
        pts, Q = _points(), _queries()
        base = Engine(pts).query(Q, method="expected_nn", tier="exact")
        long_in, short_in, long_done = (threading.Event() for _ in range(3))
        generous, tight = Engine(pts), Engine(pts)

        def hold_long():
            long_in.set()
            assert short_in.wait(WAIT_S)
            time.sleep(0.005)  # the 2 ms deadline is spent

        def hold_short():
            short_in.set()
            assert long_done.wait(WAIT_S)
            time.sleep(0.005)

        _wrap_dispatch(generous, hold_long)
        _wrap_dispatch(tight, hold_short)
        result = {}

        def long():
            try:
                result["long"] = generous.query(
                    Q, method="expected_nn", tier="exact", deadline_s=100.0
                )
            finally:
                long_done.set()

        def short():
            assert long_in.wait(WAIT_S)
            for _ in range(3):
                with pytest.raises(QueryTimeoutError):
                    tight.query(Q, method="expected_nn", tier="exact", deadline_s=0.002)

        _run_threads(long, short)
        np.testing.assert_array_equal(result["long"].answers, base.answers)
        np.testing.assert_array_equal(result["long"].values, base.values)


class TestExecution:
    def test_overlapping_blocks_read_their_own_settings(self):
        # a enters, b enters, a exits, b exits: the order in which
        # save-and-restore of a shared object would leave a's value
        # behind as the default.
        a_in, b_in, a_out, c_read = (threading.Event() for _ in range(4))
        seen = {}

        def a():
            with config.execution(tile_bytes=1024, parallel_backend="thread"):
                a_in.set()
                assert b_in.wait(WAIT_S) and c_read.wait(WAIT_S)
                seen["a"] = config.current_execution()
            a_out.set()
            seen["a_after"] = config.current_execution()

        def b():
            assert a_in.wait(WAIT_S)
            with config.execution(tile_bytes=4096, parallel_workers=3):
                b_in.set()
                assert a_out.wait(WAIT_S)
                seen["b"] = config.current_execution()

        def c():
            assert b_in.wait(WAIT_S)
            seen["c"] = config.current_execution()
            c_read.set()

        _run_threads(a, b, c)
        default = config.Execution()
        assert seen["a"] == config.Execution(tile_bytes=1024, parallel_backend="thread")
        assert seen["b"] == config.Execution(tile_bytes=4096, parallel_workers=3)
        assert seen["c"] == default
        assert seen["a_after"] == default
        assert config.EXECUTION == default
        assert config.current_execution() is config.EXECUTION

    def test_per_spec_overrides_leave_the_default_untouched(self):
        pts, Q = _points(), _queries()
        base = Engine(pts).query(Q, method="nonzero")
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        first, second = Engine(pts), Engine(pts)
        seen = {}

        def hold_a():
            seen["a"] = config.current_execution().tile_bytes
            a_in.set()
            assert b_in.wait(WAIT_S)

        def hold_b():
            b_in.set()
            assert a_out.wait(WAIT_S)
            seen["b"] = config.current_execution().tile_bytes

        _wrap_dispatch(first, hold_a)
        _wrap_dispatch(second, hold_b)
        results = {}

        def a():
            try:
                results["a"] = first.query(Q, method="nonzero", tile_bytes=1024)
            finally:
                a_out.set()

        def b():
            assert a_in.wait(WAIT_S)
            results["b"] = second.query(Q, method="nonzero", tile_bytes=2048)

        _run_threads(a, b)
        assert seen == {"a": 1024, "b": 2048}
        assert config.EXECUTION == config.Execution()
        assert _same(results["a"], base) and _same(results["b"], base)


class TestFaults:
    def test_suppression_is_per_thread(self):
        suppressed_in, fired = threading.Event(), threading.Event()
        seen = {}

        def quiet():
            with faults.suppressed():
                faults.fire("parallel.tile", 0)  # suppressed here
                seen["active"] = faults.active()
                suppressed_in.set()
                assert fired.wait(WAIT_S)

        with faults.inject(FaultSpec("parallel.tile", "crash", indices=(0,))):
            thread = threading.Thread(target=quiet)
            thread.start()
            try:
                assert suppressed_in.wait(WAIT_S)
                assert faults.active()
                with pytest.raises(WorkerCrashError):
                    faults.fire("parallel.tile", 0)
            finally:
                fired.set()
                thread.join(WAIT_S)
        assert seen == {"active": False}


class TestInheritance:
    def test_pool_tiles_read_the_submitting_context(self):
        main = threading.get_ident()
        stats = faults.FaultStats()
        seen = []

        def tile(lo, hi):
            seen.append((
                threading.get_ident() != main,
                config.current_execution(),
                active_deadline(),
            ))
            faults._record("injected")  # attributed through the collectors
            return lo

        tiles = [(i, i + 1) for i in range(8)]
        with config.execution(
            parallel_backend="thread", parallel_workers=2, tile_bytes=4321
        ) as settings, deadline_scope(60.0) as dl, faults.collecting(stats):
            got = parallel.map_tiles(tile, tiles)
        assert got == list(range(8))
        assert len(seen) == 8
        for pooled, tile_settings, tile_deadline in seen:
            assert pooled
            assert tile_settings is settings
            assert tile_deadline is dl
        assert stats.as_dict()["injected"] == 8


class TestSharedCounters:
    TILES = [(i, i + 1) for i in range(20_000)]

    @pytest.fixture(autouse=True)
    def _fast_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def _map(self):
        return parallel.map_tiles(lambda lo, hi: lo, self.TILES)

    def test_progress_counts_every_tile(self):
        # Unlocked, this lost tens to hundreds of counts in most rounds.
        for _ in range(3):
            with config.execution(
                parallel_backend="thread", parallel_workers=4
            ), deadline_scope(600.0) as dl:
                self._map()
            assert dl.progress == {"parallel.tile": len(self.TILES)}

    def test_once_only_fault_fires_once(self):
        stats = faults.FaultStats()
        spec = FaultSpec("parallel.tile", "slow", times=1)
        with config.execution(
            parallel_backend="thread", parallel_workers=4
        ), faults.collecting(stats), faults.inject(spec):
            self._map()
        assert spec.fired == 1
        assert stats.as_dict()["injected"] == 1


class TestStorm:
    def test_mixed_specs_on_concurrent_engines(self):
        # Six threads with generous deadlines and mixed per-spec
        # execution overrides, and one whose deadlines always expire,
        # each on its own engine over the same points.
        pts, Q = _points(), _queries()
        specs = [
            QuerySpec("expected_nn", tile_bytes=1024, parallel_backend="thread",
                      parallel_workers=2),
            QuerySpec("nonzero", tile_bytes=4096),
            QuerySpec("expected_knn", k=3, parallel_backend="serial"),
            QuerySpec("expected_nn", tier="exact", tile_bytes=120 * 64 * 4,
                      parallel_backend="thread", parallel_workers=2),
            QuerySpec("nonzero", tier="exact", tile_bytes=2048),
        ]
        oracle = Engine(pts)
        expected = [oracle.query(Q, spec) for spec in specs]
        start = threading.Barrier(7)

        def generous(offset):
            def run():
                engine = Engine(pts, result_cache_size=0)
                start.wait(WAIT_S)
                for rnd in range(3):
                    for j in range(len(specs)):
                        i = (j + offset + rnd) % len(specs)
                        spec = dataclasses.replace(specs[i], deadline_s=60.0)
                        res = engine.query(Q, spec)
                        assert _same(res, expected[i]), (offset, spec)
            return run

        def expiring():
            engine = Engine(pts)
            _wrap_dispatch(engine, lambda: time.sleep(0.005))
            start.wait(WAIT_S)
            for rnd in range(6):
                spec = dataclasses.replace(specs[rnd % len(specs)], deadline_s=0.002)
                with pytest.raises(QueryTimeoutError):
                    engine.query(Q, spec)

        _run_threads(*(generous(t) for t in range(6)), expiring)
        assert config.EXECUTION == config.Execution()


def _same(a, b):
    if a.values is not None and a.values.tobytes() != b.values.tobytes():
        return False
    return [np.asarray(x).tolist() for x in a.answers] == [
        np.asarray(x).tolist() for x in b.answers
    ]
