"""The resilient execution layer (PR 7).

* **Deadlines** — a cooperatively checked wall-clock budget per query
  batch: an injected slow checkpoint trips the deadline, raising
  :class:`QueryTimeoutError` (with the site and progress counters that
  were live at expiry) under ``on_deadline="raise"``, or returning a
  complete, honestly certified result whose ``degraded`` mask marks the
  re-planned rows under ``on_deadline="degrade"``.  Non-degraded rows
  are bit-identical to an undisturbed run.
* **Admission control** — ``EXECUTION.memory_budget_bytes`` rejects
  requests whose single-row working set cannot fit
  (:class:`ResourceLimitError` instead of an OOM) and auto-tiles the
  rest; tighter budgets never change answers.
* **Fault injection & recovery** — deterministic crashes at checkpoint
  sites; ``map_tiles`` retries failed tiles serially and the final
  results are identical, with the recovery surfaced in
  ``Engine.stats()["faults"]``.
* **Worker-count validation** — explicit non-positive worker requests
  raise :class:`QueryError`; ``EXECUTION.max_workers`` caps resolution.
"""

import numpy as np
import pytest

from repro import (
    Engine,
    QueryError,
    QuerySpec,
    QueryTimeoutError,
    ResourceLimitError,
    batch,
    resilience,
)
from repro.config import EXECUTION, execution
from repro.constructions import random_disk_points, random_queries
from repro.core import parallel
from repro.errors import WorkerCrashError
from repro.resilience import FaultSpec, faults


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.reset_fault_stats()
    yield
    faults.reset_fault_stats()


def _engine(n=40, seed=3):
    return Engine(random_disk_points(n, seed=seed, box=40.0))


def _queries(m=16, seed=7):
    return np.asarray(
        random_queries(m, seed, (0.0, 0.0, 40.0, 40.0)), dtype=float
    )


# The default engine route for expected_nn is the dual-tree generator,
# whose checkpoints are the traversal levels and refinement chunks (the
# tiled bound pass and parallel.tile are not on that path).
SLOW_SITE = "dual_tree.level"


class TestDeadlines:
    def test_injected_slow_tile_times_out(self):
        eng, Q = _engine(), _queries()
        with faults.inject(FaultSpec(SLOW_SITE, "slow", delay_s=0.2)):
            with pytest.raises(QueryTimeoutError) as err:
                eng.query(Q, method="expected_nn", deadline_s=0.05)
        assert err.value.deadline_s == pytest.approx(0.05)
        assert err.value.elapsed_s >= 0.05
        assert err.value.site  # the checkpoint that observed expiry
        assert isinstance(err.value.progress, dict)

    def test_generous_deadline_is_inert(self):
        eng, Q = _engine(), _queries()
        base = eng.query(Q, method="expected_nn")
        res = eng.query(Q, method="expected_nn", deadline_s=60.0)
        np.testing.assert_array_equal(res.answers, base.answers)
        np.testing.assert_array_equal(res.values, base.values)
        assert res.degraded is None

    def test_deadline_results_never_cached(self):
        eng, Q = _engine(), _queries()
        spec = QuerySpec(method="expected_nn", deadline_s=60.0)
        assert spec.cache_key() is None
        eng.query(Q, spec)
        res = eng.query(Q, spec)
        assert not res.cached

    def test_degrade_returns_certified_complete_result(self):
        eng, Q = _engine(), _queries()
        base = eng.query(Q, method="expected_nn")
        with faults.inject(FaultSpec(SLOW_SITE, "slow", delay_s=0.2)):
            res = eng.query(
                Q, method="expected_nn", deadline_s=0.05,
                on_deadline="degrade",
            )
        assert res.degraded is not None
        assert res.degraded.shape == (len(Q),)
        assert res.degraded.any()
        assert "+degraded[" in res.plan["route"]
        assert len(res.answers) == len(Q)
        # Degraded rows carry a positive certified error budget; rows
        # finished before expiry are bit-identical to the clean run.
        assert res.certificate is not None
        assert (res.certificate[res.degraded] > 0).all()
        done = ~res.degraded
        np.testing.assert_array_equal(
            np.asarray(res.answers)[done], np.asarray(base.answers)[done]
        )

    def test_degrade_winners_are_eps_certified(self):
        eng, Q = _engine(), _queries()
        base = eng.query(Q, method="expected_nn")
        with faults.inject(FaultSpec(SLOW_SITE, "slow", delay_s=0.2)):
            res = eng.query(
                Q, method="expected_nn", deadline_s=0.05,
                on_deadline="degrade", degrade_eps=0.5,
            )
        assert res.degraded.any()
        # The degraded winner's expected distance exceeds the true
        # optimum by at most the certified budget.
        assert np.all(
            np.asarray(res.values) <= np.asarray(base.values) + 0.5 + 1e-9
        )

    def test_degrade_without_expiry_marks_nothing(self):
        eng, Q = _engine(), _queries()
        res = eng.query(
            Q, method="expected_nn", deadline_s=60.0, on_deadline="degrade"
        )
        assert res.degraded is not None and not res.degraded.any()

    def test_spec_validation(self):
        with pytest.raises(QueryError):
            QuerySpec(method="expected_nn", deadline_s=0.0)
        with pytest.raises(QueryError):
            QuerySpec(method="expected_nn", deadline_s=1.0, on_deadline="panic")
        with pytest.raises(QueryError):
            # No approx tier to degrade onto.
            QuerySpec(
                method="expected_knn", k=2, deadline_s=1.0,
                on_deadline="degrade",
            )
        with pytest.raises(QueryError):
            QuerySpec(
                method="expected_nn", deadline_s=1.0, on_deadline="degrade",
                degrade_eps=-1.0,
            )

    def test_deadline_scope_is_reentrant_noop_without_budget(self):
        with resilience.deadline_scope(None):
            assert resilience.active_deadline() is None
            resilience.check_deadline("anywhere")  # must not raise


class TestAdmission:
    def test_tiny_budget_rejects_dual_path(self):
        eng, Q = _engine(), _queries()
        with execution(memory_budget_bytes=100):
            with pytest.raises(ResourceLimitError) as err:
                eng.query(Q, method="expected_nn")
        assert err.value.budget_bytes == 100
        assert err.value.required_bytes > 100

    def test_tiny_budget_rejects_dense_matrix(self):
        pts = random_disk_points(40, seed=3, box=40.0)
        with execution(memory_budget_bytes=100):
            with pytest.raises(ResourceLimitError):
                batch.expected_distance_matrix(pts, _queries())

    def test_tight_budget_auto_tiles_identically(self):
        eng, Q = _engine(), _queries()
        base = eng.query(Q, method="expected_nn")
        # Enough for a handful of rows per tile — forces tiling, must
        # not change any answer.
        budget = 64 * len(eng) * 4
        with execution(memory_budget_bytes=budget):
            res = Engine(eng.points).query(Q, method="expected_nn")
        np.testing.assert_array_equal(res.answers, base.answers)
        np.testing.assert_array_equal(res.values, base.values)
        # The exact tier tiles under the same budget, which is below one
        # (m, n) float64 matrix of this batch.
        Qx = _queries(64)
        assert budget < Qx.shape[0] * len(eng) * 8
        base = eng.query(Qx, method="expected_nn", tier="exact")
        with execution(memory_budget_bytes=budget):
            res = Engine(eng.points).query(
                Qx, method="expected_nn", tier="exact"
            )
        np.testing.assert_array_equal(res.answers, base.answers)
        np.testing.assert_array_equal(res.values, base.values)

    def test_require_bytes_without_budget_is_noop(self):
        assert EXECUTION.memory_budget_bytes is None
        resilience.require_bytes(1 << 60, what="unbudgeted request")

    def test_clamp_tile_rows_math(self):
        with execution(memory_budget_bytes=64 * 100 * 10):
            assert resilience.clamp_tile_rows(1000, 100, 64, what="t") == 10
        with execution(memory_budget_bytes=None):
            assert resilience.clamp_tile_rows(1000, 100, 64, what="t") == 1000


class TestWorkerResolution:
    def test_explicit_nonpositive_rejected(self):
        with pytest.raises(QueryError):
            parallel.resolve_workers(0)
        with pytest.raises(QueryError):
            parallel.resolve_workers(-2)

    def test_config_nonpositive_rejected(self):
        with execution(parallel_workers=0):
            with pytest.raises(QueryError):
                parallel.resolve_workers()

    def test_max_workers_caps_resolution(self):
        with execution(max_workers=2):
            assert parallel.resolve_workers(8) == 2
            assert parallel.resolve_workers() <= 2
        with execution(max_workers=0):
            with pytest.raises(QueryError):
                parallel.resolve_workers(4)

    def test_positive_requests_pass_through(self):
        assert parallel.resolve_workers(3) == 3


def _square(lo, hi):
    return (lo + hi) ** 2


class TestFaultInjection:
    def test_spec_validation(self):
        with pytest.raises(QueryError):
            FaultSpec("parallel.tile", "explode")
        with pytest.raises(QueryError):
            FaultSpec("", "crash")
        with pytest.raises(QueryError):
            FaultSpec("parallel.tile", "crash", times=0)
        with pytest.raises(QueryError):
            FaultSpec("parallel.tile", "slow", delay_s=-1.0)

    def test_unknown_site_rejected(self):
        # A plan can only name a checkpoint that fires.
        with pytest.raises(QueryError, match="unknown fault site"):
            FaultSpec("planner.tile", "crash")
        for site in faults.SITES:
            FaultSpec(site, "crash")

    def test_fire_is_noop_without_plan(self):
        faults.fire("parallel.tile", 0)  # must not raise

    def test_noop_fire_reads_no_environment(self, monkeypatch):
        # The plan is read from REPRO_FAULT_PLAN once, at import; a
        # checkpoint with no plan loaded never looks at the environment.
        import os

        lookups = []

        class CountingEnviron(dict):
            def __contains__(self, key):
                lookups.append(key)
                return super().__contains__(key)

            def __getitem__(self, key):
                lookups.append(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        monkeypatch.setattr(os, "environ", CountingEnviron(os.environ))
        for i in range(100):
            faults.fire("parallel.tile", i)
            assert not faults.active()
        assert lookups == []

    def test_crash_fires_at_exact_index(self):
        with faults.inject(
            FaultSpec("parallel.tile", "crash", indices=(1,))
        ):
            faults.fire("parallel.tile", 0)  # other units untouched
            with pytest.raises(WorkerCrashError) as err:
                faults.fire("parallel.tile", 1)
        assert err.value.index == 1
        assert faults.fault_stats()["injected"] == 1

    def test_alloc_fault_raises_resource_limit(self):
        with faults.inject(FaultSpec("admission", "alloc")):
            with pytest.raises(ResourceLimitError):
                faults.fire("admission")

    def test_suppressed_blocks_firing(self):
        with faults.inject(FaultSpec("parallel.tile", "crash")):
            with faults.suppressed():
                faults.fire("parallel.tile", 0)

    def test_plan_restored_on_exit(self):
        import os

        with faults.inject(FaultSpec("parallel.tile", "crash")):
            assert os.environ.get(faults._ENV_KEY)
        assert faults._ENV_KEY not in os.environ

    def test_thread_crash_recovered_serially(self):
        tiles = [(0, 5), (5, 10), (10, 15)]
        expected = [_square(lo, hi) for lo, hi in tiles]
        with execution(parallel_backend="thread", parallel_workers=2):
            with faults.inject(
                FaultSpec("parallel.tile", "crash", indices=(1,))
            ):
                got = parallel.map_tiles(_square, tiles)
        assert got == expected
        stats = faults.fault_stats()
        assert stats["worker_crashes"] == 1
        assert stats["tiles_retried"] == 1

    def test_planner_tiles_survive_injected_crash(self):
        # The exact tier fans out through map_tiles, so its tiles hit
        # the parallel.tile checkpoint (the pruned tier streams through
        # dual_tree.* / evaluators.chunk instead).
        from repro import QueryPlanner

        pts = random_disk_points(40, seed=3, box=40.0)
        Q = _queries(64)
        base = QueryPlanner(pts).expected_nn_many(Q, tier="exact")
        planner = QueryPlanner(pts)
        with execution(
            tile_bytes=len(pts) * 64 * 8,
            parallel_backend="thread", parallel_workers=2,
        ), faults.inject(
            FaultSpec("parallel.tile", "crash", indices=(1,))
        ):
            got = planner.expected_nn_many(Q, tier="exact")
        np.testing.assert_array_equal(got[0], base[0])
        np.testing.assert_array_equal(got[1], base[1])
        stats = faults.fault_stats()
        assert stats["worker_crashes"] >= 1
        assert stats["tiles_retried"] >= 1

    def test_engine_stats_surface_fault_counters(self):
        eng = _engine()
        stats = eng.stats()
        assert set(stats["faults"]) >= {
            "injected", "worker_crashes", "tiles_retried",
        }


class TestPerEngineFaultStats:
    """Fault/recovery counters are scoped per engine (PR 8): concurrent
    engines never cross-contaminate, while the module-level
    ``fault_stats()`` keeps its historical aggregate semantics."""

    def test_collecting_isolates_and_aggregates(self):
        s1, s2 = faults.FaultStats(), faults.FaultStats()
        with faults.collecting(s1):
            faults._record("injected")
        with faults.collecting(s2):
            faults._record("injected", 2)
        assert s1.as_dict()["injected"] == 1
        assert s2.as_dict()["injected"] == 2
        assert faults.fault_stats()["injected"] == 3

    def test_engine_counters_do_not_cross_contaminate(self):
        pts = random_disk_points(24, seed=3, box=40.0)
        e1, e2 = Engine(pts), Engine(pts)
        Q = _queries(12)
        base = e2.query(Q, method="expected_nn", tier="exact")
        with faults.inject(
            FaultSpec("parallel.tile", "crash", indices=(1,), times=1)
        ):
            res = e1.query(
                Q, method="expected_nn", tier="exact",
                parallel_backend="thread", parallel_workers=2,
                tile_bytes=24 * 64 * 4,
            )
        np.testing.assert_array_equal(res.answers, base.answers)
        np.testing.assert_array_equal(res.values, base.values)
        s1 = e1.stats()["faults"]
        s2 = e2.stats()["faults"]
        assert s1["worker_crashes"] == 1
        assert s1["tiles_retried"] == 1
        assert all(v == 0 for v in s2.values())
        # The module aggregate still sees everything (legacy surface).
        assert faults.fault_stats()["worker_crashes"] == 1

    def test_thread_pool_workers_attribute_to_issuing_engine(self):
        # Events fired inside pool worker threads land in the engine
        # collector that submitted the work.
        stats = faults.FaultStats()
        tiles = [(0, 5), (5, 10), (10, 15)]
        with execution(parallel_backend="thread", parallel_workers=2):
            with faults.inject(
                FaultSpec("parallel.tile", "crash", indices=(1,))
            ):
                with faults.collecting(stats):
                    got = parallel.map_tiles(_square, tiles)
        assert got == [_square(lo, hi) for lo, hi in tiles]
        counters = stats.as_dict()
        assert counters["injected"] == 1
        assert counters["worker_crashes"] == 1
        assert counters["tiles_retried"] == 1


class TestDegradeComposesWithProcessRecovery:
    def test_degraded_mask_and_recovered_tiles_compose(self):
        # One query combines ``on_deadline="degrade"`` with the thread
        # pool and an injected ``parallel.tile`` crash — the crash is
        # recovered inside a finished chunk (those rows stay
        # bit-identical) while the deadline degrades the tail.
        eng = _engine(n=24)
        Q = _queries(30)
        base = eng.query(Q, method="expected_nn", tier="exact")
        # The deadline is generous enough for chunk 0 (including the
        # serial crash recovery) and is then tripped deterministically
        # by the slow fault at chunk 1.
        with faults.inject(
            FaultSpec("parallel.tile", "crash", times=1),
            FaultSpec("engine.chunk", "slow", delay_s=3.5, indices=(1,)),
        ):
            res = eng.query(
                Q, method="expected_nn", tier="exact",
                parallel_backend="thread", parallel_workers=2,
                tile_bytes=24 * 64 * 5,
                deadline_s=3.0, on_deadline="degrade",
            )
        assert res.degraded is not None
        assert res.degraded.any() and not res.degraded.all()
        assert "+degraded[" in res.plan["route"]
        done = ~res.degraded
        np.testing.assert_array_equal(
            np.asarray(res.answers)[done], np.asarray(base.answers)[done]
        )
        np.testing.assert_array_equal(
            np.asarray(res.values)[done], np.asarray(base.values)[done]
        )
        assert eng.stats()["faults"]["tiles_retried"] >= 1


class TestStrictWorkerResolution:
    def test_strict_rejects_above_cap(self):
        with execution(max_workers=2):
            with pytest.raises(ResourceLimitError, match="max_workers"):
                parallel.resolve_workers(4, strict=True, what="test pool")

    def test_strict_clamps_implicit_requests(self):
        # Only *explicit* requests are admission-checked; the implicit
        # CPU-count default still clamps quietly.
        with execution(max_workers=1):
            assert parallel.resolve_workers(strict=True) == 1
