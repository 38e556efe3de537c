"""Supervised sharded engine cluster (PR 8).

* **Bit-identity** — :class:`repro.ShardedEngine` answers every
  shardable method x tier exactly as the single-process engine, on
  mixed continuous/discrete datasets and across shard counts, and the
  identity survives a worker killed mid-query (respawn + resend).
* **Supervision** — stale heartbeats and dead workers are respawned;
  a lost shared-memory segment falls back to the per-shard snapshot;
  respawned workers run fault-suppressed so the inherited plan does
  not re-fire during recovery.
* **Honest degradation** — a shard dead past the retry budget yields a
  *complete* result over the surviving shards with every row flagged in
  ``degraded`` and the missing shards named in the plan; all shards
  dead falls back to an exact local answer.  Queries never hang.
* **Admission** — a shard topology above ``EXECUTION.max_workers`` or a
  shared-memory footprint above ``memory_budget_bytes`` is rejected at
  construction with :class:`ResourceLimitError`.
"""

import time

import numpy as np
import pytest

from repro import (
    Engine,
    QueryError,
    QuerySpec,
    ResourceLimitError,
    ShardedEngine,
    config,
    shard_bounds,
)
from repro.cluster import HEARTBEAT_SITE, SHARD_QUERY_SITE
from repro.constructions import (
    random_discrete_points,
    random_disk_points,
    random_queries,
)
from repro.resilience import FaultSpec, faults
from repro.resilience.retry import RetryPolicy


def _points(n=48, seed=3):
    half = n // 2
    return random_disk_points(half, seed=seed, box=40.0) + (
        random_discrete_points(n - half, 4, seed=seed + 2, box=40.0)
    )


def _queries(m=20, seed=7):
    return np.asarray(random_queries(m, seed, (0.0, 0.0, 40.0, 40.0)))


FAST_RETRY = RetryPolicy(attempts=2, base_delay_s=0.01, max_delay_s=0.05)


def _same(method, r1, r2):
    if method == "nonzero":
        return r1.answers == r2.answers
    if r1.values is not None or r2.values is not None:
        if not np.array_equal(r1.values, r2.values):
            return False
    return np.array_equal(np.asarray(r1.answers), np.asarray(r2.answers))


class TestShardBounds:
    def test_bounds_partition_contiguously(self):
        assert shard_bounds(10, 3) == [(0, 3), (3, 6), (6, 10)]
        assert shard_bounds(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_bounds_validate(self):
        with pytest.raises(QueryError):
            shard_bounds(3, 4)
        with pytest.raises(QueryError):
            shard_bounds(3, 0)


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def cluster(self):
        with ShardedEngine(_points(), shards=3, retry=FAST_RETRY) as ce:
            yield ce

    @pytest.fixture(scope="class")
    def serial(self):
        return Engine(_points())

    @pytest.mark.parametrize("method", ["expected_nn", "nonzero", "expected_knn"])
    @pytest.mark.parametrize("tier", ["exact", "pruned"])
    def test_identical_to_single_process(self, cluster, serial, method, tier):
        Q = _queries()
        kw = {"k": 5} if method == "expected_knn" else {}
        r1 = serial.query(Q, method=method, tier=tier, **kw)
        r2 = cluster.query(Q, method=method, tier=tier, **kw)
        assert r2.plan["route"] == f"cluster/{method}/{tier}"
        assert _same(method, r1, r2)
        assert r2.m == len(Q) and r2.n == len(serial)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_exact_tier_identical_at_every_shard_count(self, serial, shards):
        Q = _queries(m=12, seed=13)
        base = serial.query(Q, method="expected_nn", tier="exact")
        with ShardedEngine(_points(), shards=shards, retry=FAST_RETRY) as ce:
            res = ce.query(Q, method="expected_nn", tier="exact")
        assert _same("expected_nn", base, res)

    def test_uneven_shard_count(self, serial):
        # 5 shards over 48 rows: uneven ranges, same answers.
        Q = _queries(m=11, seed=9)
        with ShardedEngine(_points(), shards=5, retry=FAST_RETRY) as ce:
            for method in ("expected_nn", "nonzero"):
                r1 = serial.query(Q, method=method)
                r2 = ce.query(Q, method=method)
                assert _same(method, r1, r2)

    def test_knn_k_above_shard_size(self, serial):
        # k larger than every shard's row count forces the merge to
        # combine partial per-shard top lists.
        Q = _queries(m=8, seed=11)
        with ShardedEngine(_points(), shards=6, retry=FAST_RETRY) as ce:
            r1 = serial.query(Q, method="expected_knn", k=17)
            r2 = ce.query(Q, method="expected_knn", k=17)
            assert np.array_equal(r1.answers, r2.answers)

    def test_non_shardable_specs_run_locally(self, cluster, serial):
        Q = _queries(m=6)
        before = cluster.stats()["cluster"]["local_queries"]
        r1 = serial.query(Q, method="mc_pnn", s=8, seed=1)
        r2 = cluster.query(Q, method="mc_pnn", s=8, seed=1)
        assert r1.answers == r2.answers
        sub = cluster.query(
            Q, method="expected_nn", subset=[0, 1, 2, 3, 4, 5]
        )
        assert np.asarray(sub.answers).max() <= 5
        assert cluster.stats()["cluster"]["local_queries"] == before + 2

    def test_spec_overrides_keep_subset_mask_guard(self, cluster):
        # A boolean mask built for a different dataset is rejected, also
        # when the call overrides other fields of the spec.
        mask = np.zeros(len(cluster) + 5, dtype=bool)
        mask[5] = True
        spec = QuerySpec("expected_nn", subset=mask)
        Q = _queries(m=2)
        with pytest.raises(QueryError, match="mask must have length"):
            cluster.query(Q, spec)
        with pytest.raises(QueryError, match="mask must have length"):
            cluster.query(Q, spec, diagnostics=True)


class TestFailover:
    def test_kill_during_query_respawns_and_matches(self):
        pts, Q = _points(), _queries()
        base = Engine(pts).query(Q, method="expected_nn")
        with faults.inject(
            FaultSpec(SHARD_QUERY_SITE, "kill", indices=(1,), times=1)
        ):
            with ShardedEngine(pts, shards=3, retry=FAST_RETRY) as ce:
                res = ce.query(Q, method="expected_nn")
                st = ce.stats()["cluster"]
        assert _same("expected_nn", base, res)
        assert res.degraded is None
        assert st["respawns"] >= 1
        assert sum(st["retries"]["retries"].values()) >= 1
        assert st["dead_shards"] == []

    def test_error_reply_retries_without_respawn(self):
        pts, Q = _points(), _queries()
        base = Engine(pts).query(Q, method="nonzero")
        with faults.inject(
            FaultSpec(SHARD_QUERY_SITE, "crash", indices=(0,), times=1)
        ):
            with ShardedEngine(pts, shards=2, retry=FAST_RETRY) as ce:
                res = ce.query(Q, method="nonzero")
                st = ce.stats()["cluster"]
        assert base.answers == res.answers
        assert st["respawns"] == 0
        assert sum(st["retries"]["retries"].values()) >= 1

    def test_idle_death_respawned_by_supervise(self):
        pts, Q = _points(), _queries(m=8)
        base = Engine(pts).query(Q, method="expected_nn")
        with faults.inject(
            FaultSpec(HEARTBEAT_SITE, "kill", indices=(0,), times=1)
        ):
            with ShardedEngine(
                pts, shards=2, heartbeat_interval_s=0.05, retry=FAST_RETRY
            ) as ce:
                deadline = time.monotonic() + 10.0
                while (
                    ce.shard_map()[0]["alive"]
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                res = ce.query(Q, method="expected_nn")
                assert ce.stats()["cluster"]["respawns"] >= 1
        assert _same("expected_nn", base, res)

    def test_segment_lost_falls_back_to_snapshot(self):
        pts, Q = _points(), _queries(m=10)
        base = Engine(pts).query(Q, method="expected_nn")
        with ShardedEngine(
            pts, shards=2, retry=FAST_RETRY, snapshot_fallback=True
        ) as ce:
            shard = ce._shards[0]
            shard.shm.unlink()  # the segment vanishes out from under us
            ce._terminate(shard)
            res = ce.query(Q, method="expected_nn")
            assert ce.stats()["cluster"]["respawns"] >= 1
        assert _same("expected_nn", base, res)


class TestDegradation:
    def test_drained_shard_degrades_honestly(self):
        pts, Q = _points(), _queries()
        with ShardedEngine(pts, shards=3, retry=FAST_RETRY) as ce:
            ce.drain_shard(1)
            res = ce.query(Q, method="expected_nn")
            lo, hi = ce.shard_map()[1]["rows"]
        assert res.degraded is not None and res.degraded.all()
        assert res.plan["route"].endswith(f"+degraded[{len(Q)}]")
        assert res.plan["dead_shards"] == [1]
        assert res.plan["missing_rows"] == [[lo, hi]]
        # The degraded answers are the exact answers over the surviving
        # shards' objects.
        keep = [i for i in range(len(pts)) if not lo <= i < hi]
        sub = Engine([pts[i] for i in keep]).query(Q, method="expected_nn")
        assert np.array_equal(
            np.asarray(keep)[np.asarray(sub.answers)], res.answers
        )
        np.testing.assert_array_equal(sub.values, res.values)

    def test_retry_exhaustion_degrades_instead_of_hanging(self, monkeypatch):
        pts, Q = _points(), _queries(m=8)
        with ShardedEngine(
            pts, shards=2, retry=FAST_RETRY, shard_timeout_s=1.0
        ) as ce:
            # Break respawn so the killed worker stays dead: the retry
            # budget must then run out and degrade, not hang.
            monkeypatch.setattr(ce, "_respawn", lambda shard: None)
            ce._terminate(ce._shards[1])
            t0 = time.monotonic()
            res = ce.query(Q, method="nonzero")
            elapsed = time.monotonic() - t0
            st = ce.stats()["cluster"]
        assert elapsed < 30.0
        assert res.degraded is not None and res.degraded.all()
        assert st["dead_shards"] == [1]
        assert sum(st["retries"]["exhausted"].values()) == 1
        lo, hi = shard_bounds(len(pts), 2)[1]
        keep = [i for i in range(len(pts)) if not lo <= i < hi]
        sub = Engine([pts[i] for i in keep]).query(Q, method="nonzero")
        assert [
            frozenset(np.asarray(keep)[sorted(s)]) for s in sub.answers
        ] == res.answers

    def test_all_shards_dead_answers_exactly_from_local(self):
        pts, Q = _points(), _queries(m=6)
        base = Engine(pts).query(Q, method="expected_nn")
        with ShardedEngine(pts, shards=2, retry=FAST_RETRY) as ce:
            ce.drain_shard(0)
            ce.drain_shard(1)
            res = ce.query(Q, method="expected_nn")
            st = ce.stats()["cluster"]
        assert _same("expected_nn", base, res)
        assert res.degraded is None or not res.degraded.any()
        assert res.plan["cluster"]["local_fallback"] is True
        assert st["local_fallback_queries"] == 1


class TestAdmission:
    def test_shards_above_max_workers_rejected(self):
        with config.execution(max_workers=2):
            with pytest.raises(ResourceLimitError, match="max_workers"):
                ShardedEngine(_points(), shards=4)

    def test_shm_above_memory_budget_rejected(self):
        with config.execution(memory_budget_bytes=512):
            with pytest.raises(ResourceLimitError, match="shared-memory"):
                ShardedEngine(_points(), shards=2)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(QueryError):
            ShardedEngine(_points(), shards=0)


class TestStatsAndLifecycle:
    def test_stats_surface(self):
        with ShardedEngine(_points(), shards=2, retry=FAST_RETRY) as ce:
            ce.query(_queries(m=4), method="expected_nn")
            st = ce.stats()
            cl = st["cluster"]
            assert cl["shards"] == 2
            assert cl["sharded_queries"] == 1
            assert cl["shm_bytes"] > 0
            assert len(cl["shard_map"]) == 2
            assert all(s["alive"] for s in cl["shard_map"])
            assert {"attempts", "retries", "exhausted"} <= set(
                cl["retries"]
            )
            assert "faults" in st  # the local engine's stats come along

    def test_close_is_idempotent_and_releases_segments(self):
        ce = ShardedEngine(_points(), shards=2, retry=FAST_RETRY)
        names = [s.shm.name for s in ce._shards]
        ce.close()
        ce.close()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
