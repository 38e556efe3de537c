"""Run the batch/planner/approx-tier/engine benchmarks and write reports.

Measures the three query tiers against each other on the clustered
workloads they were built for and writes ``BENCH_pr3.json`` (timings,
speedup ratios, certificate checks, memory peaks) plus ``BENCH_pr4.json``
(the PR 4 stateful-engine sessions) so the performance trajectory is
tracked across PRs:

* the PR 2 prune-then-evaluate planner vs the unpruned batch paths
  (answer identity is a hard assertion);
* the PR 3 ε-approximate quantized-envelope tier vs the pruned planner
  (certified error bound is a hard assertion, >= 5x speedup the
  full-config acceptance bar);
* tiled vs flat planner execution (bit-identical answers and a peak
  allocation below one ``(m, n)`` float64 are hard assertions) and the
  thread-parallel tile fan-out (identical answers);
* adaptive vs fixed-round Monte-Carlo PNN;
* the PR 4 :class:`repro.Engine` session vs per-call ``repro.batch``
  on a repeated-batch workload (bit-identity and the >= 5x repeated-
  batch speedup are hard assertions), plus distinct-batch amortization
  (reported honestly, no bar) and insert/remove-vs-fresh identity.

Usage::

    python benchmarks/run_all.py                # full acceptance config
    python benchmarks/run_all.py --quick        # CI-sized smoke run
    python benchmarks/run_all.py --strict       # exit 1 on soft failures
    python benchmarks/run_all.py --engine-only  # only the PR 4 report

Soft assertions (reported in the JSON, fatal only with ``--strict``)
cover the wall-clock bars; answer-identity, certificate, and the PR 4
repeated-batch violations are always fatal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc

import numpy as np

from repro import (
    Engine,
    ExpectedNNIndex,
    MonteCarloPNN,
    QueryPlanner,
    UncertainSet,
    batch,
    config,
)
from repro.constructions import (
    cluster_centers,
    clustered_discrete_points,
    clustered_disk_points,
    clustered_queries,
)

from _util import print_table

#: Acceptance bar for the headline scenarios (full config only).
TARGET_SPEEDUP = 5.0
TARGET_EVAL_SPEEDUP = 3.0
#: Coalesced vs per-request service throughput bar (full config only).
TARGET_SERVICE_SPEEDUP = 3.0


def _timeit(fn, repeats: int = 1):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_expected_nn_disks(cfg, report):
    """Expected-distance NN over quadrature-priced disk models.

    The unpruned path evaluates the full ``(m, n)`` expectation matrix
    (every entry a fixed-node tail quadrature), so it is timed on a
    query subsample and extrapolated per query; the planner runs the
    full matrix.  Identity is checked exactly on the subsample.
    """
    centers = cluster_centers(cfg["clusters"], seed=101, box=cfg["box"])
    points = clustered_disk_points(cfg["n"], centers=centers, seed=102)
    Q = np.asarray(clustered_queries(cfg["m"], centers=centers, seed=103))
    Qref = Q[: cfg["m_exact"]]
    index = ExpectedNNIndex(points)
    index.query_many(Q[:2])  # warm the planner build + NumPy
    index.query_many(Qref[:2], exact=True)

    t_planner, (pi, pv) = _timeit(lambda: index.query_many(Q))
    t_exact_ref, (xi, xv) = _timeit(lambda: index.query_many(Qref, exact=True))
    identical = bool(
        np.array_equal(pi[: len(Qref)], xi) and np.array_equal(pv[: len(Qref)], xv)
    )
    per_q_planner = t_planner / len(Q)
    per_q_exact = t_exact_ref / len(Qref)
    speedup = per_q_exact / per_q_planner
    stats = index.planner.prune_stats(Q, criterion="expected")
    report["results"]["expected_nn_disks"] = {
        "model": "uniform disks (quadrature expectations)",
        "n": cfg["n"],
        "m": cfg["m"],
        "m_exact_subsample": cfg["m_exact"],
        "seconds_planner": t_planner,
        "seconds_exact_subsample": t_exact_ref,
        "per_query_planner": per_q_planner,
        "per_query_exact": per_q_exact,
        "speedup_vs_exact": speedup,
        "exact_extrapolated": True,
        "identical_on_subsample": identical,
        "mean_candidates": stats["mean_candidates"],
        "mean_candidate_fraction": stats["mean_fraction"],
    }
    print_table(
        f"expected-NN, clustered disks, n={cfg['n']}, m={cfg['m']}",
        ["path", "sec/query", "speedup"],
        [
            ("exact full matrix", f"{per_q_exact:.2e}", "1.0x"),
            ("planner (PR 2)", f"{per_q_planner:.2e}", f"{speedup:.1f}x"),
        ],
    )
    _soft(report, "expected_nn_disks identical", identical, "pruned != unpruned", hard=True)
    _soft(
        report,
        "expected_nn_disks beats unpruned",
        speedup >= 1.0,
        f"speedup {speedup:.2f}x < 1x",
    )
    if not report["quick"]:
        _soft(
            report,
            f"expected_nn_disks >= {TARGET_SPEEDUP}x",
            speedup >= TARGET_SPEEDUP,
            f"speedup {speedup:.2f}x below acceptance bar",
        )


def bench_expected_nn_discrete(cfg, report):
    """Expected-distance NN over cheap closed-form discrete models — the
    planner's worst case (the evaluator costs about as much as the
    bounds); reported to keep the trajectory honest, gated only on
    not regressing."""
    centers = cluster_centers(cfg["clusters"], seed=111, box=cfg["box"])
    points = clustered_discrete_points(
        cfg["n"], k=cfg["k_locations"], centers=centers, seed=112
    )
    Q = np.asarray(clustered_queries(cfg["m"], centers=centers, seed=113))
    index = ExpectedNNIndex(points)
    index.query_many(Q[:2])
    index.query_many(Q[:2], exact=True)
    t_planner, (pi, pv) = _timeit(lambda: index.query_many(Q), repeats=2)
    t_exact, (xi, xv) = _timeit(lambda: index.query_many(Q, exact=True), repeats=2)
    identical = bool(np.array_equal(pi, xi) and np.array_equal(pv, xv))
    speedup = t_exact / t_planner
    report["results"]["expected_nn_discrete"] = {
        "model": f"discrete k={cfg['k_locations']} (closed-form expectations)",
        "n": cfg["n"],
        "m": cfg["m"],
        "seconds_planner": t_planner,
        "seconds_exact": t_exact,
        "speedup_vs_exact": speedup,
        "identical": identical,
    }
    print_table(
        f"expected-NN, clustered discrete, n={cfg['n']}, m={cfg['m']}",
        ["path", "seconds", "speedup"],
        [
            ("exact full matrix", f"{t_exact:.3f}", "1.0x"),
            ("planner", f"{t_planner:.3f}", f"{speedup:.1f}x"),
        ],
    )
    _soft(report, "expected_nn_discrete identical", identical, "pruned != unpruned", hard=True)


def bench_monte_carlo_pnn(cfg, report):
    """Monte-Carlo PNN: candidate-only rounds vs full (m, n) argmins over
    the same stored (s, n, 2) instantiations."""
    centers = cluster_centers(cfg["clusters"], seed=121, box=cfg["box"])
    points = clustered_discrete_points(cfg["n"], k=3, centers=centers, seed=122)
    Q = np.asarray(clustered_queries(cfg["m"], centers=centers, seed=123))
    mc = MonteCarloPNN(points, s=cfg["s_rounds"], rng=7)
    planner = QueryPlanner(points)
    mc.query_many(Q[:2])
    mc.query_many(Q[:2], planner=planner)
    t_pruned, pruned = _timeit(lambda: mc.query_matrix(Q, planner=planner))
    t_full, full = _timeit(lambda: mc.query_matrix(Q))
    identical = bool(np.array_equal(pruned, full))
    speedup = t_full / t_pruned
    stats = planner.prune_stats(Q)
    report["results"]["monte_carlo_pnn"] = {
        "n": cfg["n"],
        "m": cfg["m"],
        "s_rounds": cfg["s_rounds"],
        "seconds_planner": t_pruned,
        "seconds_exact": t_full,
        "speedup_vs_exact": speedup,
        "identical": identical,
        "mean_candidates": stats["mean_candidates"],
        "mean_candidate_fraction": stats["mean_fraction"],
    }
    print_table(
        f"Monte-Carlo PNN, n={cfg['n']}, m={cfg['m']}, s={cfg['s_rounds']}",
        ["path", "seconds", "speedup"],
        [
            ("full argmin rounds", f"{t_full:.3f}", "1.0x"),
            ("planner CSR rounds", f"{t_pruned:.3f}", f"{speedup:.1f}x"),
        ],
    )
    _soft(report, "monte_carlo_pnn identical", identical, "pruned != unpruned", hard=True)
    _soft(
        report,
        "monte_carlo_pnn beats unpruned",
        speedup >= 1.0,
        f"speedup {speedup:.2f}x < 1x",
    )
    if not report["quick"]:
        _soft(
            report,
            f"monte_carlo_pnn >= {TARGET_SPEEDUP}x",
            speedup >= TARGET_SPEEDUP,
            f"speedup {speedup:.2f}x below acceptance bar",
        )


def bench_nonzero(cfg, report):
    """Lemma 2.1 NN!=0: pruned extremal-distance evaluation vs the full
    (m, n) scan."""
    centers = cluster_centers(cfg["clusters"], seed=131, box=cfg["box"])
    points = clustered_disk_points(cfg["n"], centers=centers, seed=132)
    Q = np.asarray(clustered_queries(cfg["m"], centers=centers, seed=133))
    uset = UncertainSet(points)
    planner = QueryPlanner(points)
    planner.nonzero_nn_many(Q[:2])
    uset.nonzero_nn_many(Q[:2])
    t_pruned, pruned = _timeit(lambda: planner.nonzero_nn_many(Q))
    t_full, full = _timeit(lambda: uset.nonzero_nn_many(Q))
    identical = pruned == full
    speedup = t_full / t_pruned
    report["results"]["nonzero_nn"] = {
        "n": cfg["n"],
        "m": cfg["m"],
        "seconds_planner": t_pruned,
        "seconds_exact": t_full,
        "speedup_vs_exact": speedup,
        "identical": identical,
    }
    print_table(
        f"NN!=0 scan, clustered disks, n={cfg['n']}, m={cfg['m']}",
        ["path", "seconds", "speedup"],
        [
            ("full scan", f"{t_full:.3f}", "1.0x"),
            ("planner", f"{t_pruned:.3f}", f"{speedup:.1f}x"),
        ],
    )
    _soft(report, "nonzero identical", identical, "pruned != unpruned", hard=True)


def bench_threshold(cfg, report):
    """Exact threshold sweep on candidate subsets vs all N locations."""
    centers = cluster_centers(cfg["clusters"], seed=141, box=cfg["box"])
    points = clustered_discrete_points(
        cfg["n_threshold"], k=3, centers=centers, seed=142
    )
    Q = np.asarray(
        clustered_queries(cfg["m_threshold"], centers=centers, seed=143)
    )
    tau = 0.25
    t_pruned, pruned = _timeit(
        lambda: batch.threshold_nn_exact_many(points, Q, tau)
    )
    t_full, full = _timeit(
        lambda: batch.threshold_nn_exact_many(points, Q, tau, exact=True)
    )
    identical = pruned == full
    speedup = t_full / t_pruned
    report["results"]["threshold_nn"] = {
        "n": cfg["n_threshold"],
        "m": cfg["m_threshold"],
        "tau": tau,
        "seconds_planner": t_pruned,
        "seconds_exact": t_full,
        "speedup_vs_exact": speedup,
        "identical": identical,
    }
    print_table(
        f"threshold sweep, n={cfg['n_threshold']}, m={cfg['m_threshold']}",
        ["path", "seconds", "speedup"],
        [
            ("full sweep", f"{t_full:.3f}", "1.0x"),
            ("planner subset sweep", f"{t_pruned:.3f}", f"{speedup:.1f}x"),
        ],
    )
    _soft(report, "threshold identical", identical, "pruned != unpruned", hard=True)


def bench_approx_tier(cfg, report):
    """The PR 3 headline: ε-approximate expected-NN by point location in
    the quantized lower envelope vs the PR 2 pruned planner, on the same
    clustered-disks workload.  The certificate (every answer within
    ``max(eps, rel * exact)`` of the exact envelope value) is a hard
    assertion; the >= 5x steady-state speedup is the full-config bar.
    """
    eps, rel = cfg["eps"], cfg["rel"]
    centers = cluster_centers(cfg["clusters"], seed=101, box=cfg["box"])
    points = clustered_disk_points(cfg["n"], centers=centers, seed=102)
    Q = np.asarray(clustered_queries(cfg["m"], centers=centers, seed=103))
    planner = QueryPlanner(points)
    planner.expected_nn_many(Q[:2])  # warm planner + NumPy
    t_planner, (pi, pv) = _timeit(lambda: planner.expected_nn_many(Q))

    t_build0 = time.perf_counter()
    index = planner.approx_index(eps, rel, "expected")
    t_build = time.perf_counter() - t_build0
    t_cold, ans = _timeit(lambda: index.expected_nn_many(Q))  # labels fill lazily
    t_warm, ans2 = _timeit(lambda: index.expected_nn_many(Q), repeats=3)
    t_tier, (ai, av) = _timeit(
        lambda: planner.expected_nn_many(Q, tier="approx", eps=eps, rel=rel)
    )
    budget = np.maximum(eps, rel * pv)
    err = np.abs(av - pv)
    max_err = float(err.max()) if err.size else 0.0
    within = bool(np.all(err <= budget + 1e-6))
    speedup_warm = t_planner / t_warm
    stats = index.stats()
    report["results"]["approx_expected_nn"] = {
        "model": "uniform disks (quantized envelope vs pruned planner)",
        "n": cfg["n"],
        "m": cfg["m"],
        "eps": eps,
        "rel": rel,
        "seconds_planner_pruned": t_planner,
        "seconds_build": t_build,
        "seconds_query_cold": t_cold,
        "seconds_query_warm": t_warm,
        "seconds_tier_with_fallback": t_tier,
        "speedup_vs_pruned_warm": speedup_warm,
        "speedup_vs_pruned_cold": t_planner / t_cold,
        "max_abs_error": max_err,
        "max_allowed": float(budget.max()) if budget.size else eps,
        "fallback_fraction": float(ans.fallback.mean()) if len(Q) else 0.0,
        "index_nodes": stats["nodes"],
        "index_settled_leaves": stats["settled_leaves"],
        "index_quant_leaves": stats["quant_leaves"],
        "index_fallback_leaves": stats["fallback_leaves"],
        "index_depth": stats["depth"],
    }
    print_table(
        f"approx tier, clustered disks, n={cfg['n']}, m={cfg['m']}, "
        f"eps={eps}, rel={rel}",
        ["path", "seconds", "speedup"],
        [
            ("planner pruned (PR 2)", f"{t_planner:.3f}", "1.0x"),
            ("approx cold (lazy labels)", f"{t_cold:.3f}",
             f"{t_planner / t_cold:.1f}x"),
            ("approx warm", f"{t_warm:.4f}", f"{speedup_warm:.1f}x"),
            ("approx tier + fallback", f"{t_tier:.4f}",
             f"{t_planner / t_tier:.1f}x"),
        ],
    )
    _soft(
        report,
        "approx_expected_nn certificate",
        within,
        f"max error {max_err:.4f} exceeds certified budget",
        hard=True,
    )
    if not report["quick"]:
        # The bar is measured against the *current* pruned tier, whose
        # evaluator got ~3.8x faster in PR 6 (grouped CSR kernels) —
        # the approx tier's relative headroom shrank because its
        # baseline improved, so its bar sits below TARGET_SPEEDUP.
        _soft(
            report,
            f"approx_expected_nn >= {TARGET_EVAL_SPEEDUP}x",
            speedup_warm >= TARGET_EVAL_SPEEDUP,
            f"speedup {speedup_warm:.2f}x below acceptance bar",
        )


def bench_tiled_vs_flat(cfg, report):
    """Tiled planner execution vs the flat single-tile pass: answers must
    be bit-identical, the tiled peak allocation must stay below even one
    ``(m, n)`` float64 matrix, and the thread backend must agree."""
    centers = cluster_centers(cfg["clusters"], seed=151, box=cfg["box"])
    points = clustered_disk_points(cfg["n"], centers=centers, seed=152)
    Q = np.asarray(clustered_queries(cfg["m"], centers=centers, seed=153))
    m, n = Q.shape[0], len(points)
    planner = QueryPlanner(points)
    planner.expected_nn_many(Q[:2])
    flat_bytes = 1 << 62  # everything in one tile == the PR 2 flat pass
    with config.execution(tile_bytes=flat_bytes):
        t_flat, (fw, fv) = _timeit(lambda: planner.expected_nn_many(Q), repeats=3)
    with config.execution(tile_bytes=cfg["tile_bytes"]):
        t_tiled, (tw, tv) = _timeit(lambda: planner.expected_nn_many(Q), repeats=3)
    identical = bool(np.array_equal(fw, tw) and np.array_equal(fv, tv))
    threaded = QueryPlanner(
        points, tile_bytes=cfg["tile_bytes"], parallel_backend="thread"
    )
    t_thread, (ww, wv) = _timeit(lambda: threaded.expected_nn_many(Q))
    thread_identical = bool(np.array_equal(fw, ww) and np.array_equal(fv, wv))
    # Peak traced allocation, measured outside the timing runs.
    with config.execution(tile_bytes=cfg["tile_bytes"]):
        tracemalloc.start()
        planner.expected_nn_many(Q)
        _, peak_tiled = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    with config.execution(tile_bytes=flat_bytes):
        tracemalloc.start()
        planner.expected_nn_many(Q)
        _, peak_flat = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    full_matrix_bytes = m * n * 8
    report["results"]["tiled_vs_flat"] = {
        "n": n,
        "m": m,
        "tile_bytes": cfg["tile_bytes"],
        "seconds_flat": t_flat,
        "seconds_tiled": t_tiled,
        "seconds_thread_backend": t_thread,
        "tiled_over_flat": t_tiled / t_flat,
        "identical": identical,
        "thread_identical": thread_identical,
        "peak_bytes_flat": int(peak_flat),
        "peak_bytes_tiled": int(peak_tiled),
        "full_matrix_bytes": int(full_matrix_bytes),
        "peak_reduction": peak_flat / max(peak_tiled, 1),
    }
    print_table(
        f"tiled vs flat bound pass, n={n}, m={m}, "
        f"tile={cfg['tile_bytes'] // 1024} KiB",
        ["path", "seconds", "peak MiB"],
        [
            ("flat (one tile)", f"{t_flat:.3f}", f"{peak_flat / 2**20:.1f}"),
            ("tiled", f"{t_tiled:.3f}", f"{peak_tiled / 2**20:.1f}"),
            ("tiled + threads", f"{t_thread:.3f}", "-"),
        ],
    )
    _soft(report, "tiled identical to flat", identical, "tiled != flat", hard=True)
    _soft(
        report,
        "thread backend identical",
        thread_identical,
        "thread != serial",
        hard=True,
    )
    _soft(
        report,
        "tiled peak below one (m, n) float64",
        peak_tiled < full_matrix_bytes,
        f"peak {peak_tiled} >= {full_matrix_bytes}",
        hard=True,
    )
    if not report["quick"]:
        # At CI-smoke scale the memory bound forces tiles too small to
        # amortize per-object dispatch; the wall-clock bar is gated on
        # the production-sized configuration.
        _soft(
            report,
            "tiled within 1.5x of flat wall-clock",
            t_tiled <= 1.5 * t_flat,
            f"tiled {t_tiled:.3f}s vs flat {t_flat:.3f}s",
        )


def bench_mc_adaptive(cfg, report):
    """Adaptive (empirical-Bernstein) Monte-Carlo rounds vs the fixed-s
    run over the same stored instantiations."""
    centers = cluster_centers(cfg["clusters"], seed=161, box=cfg["box"])
    points = clustered_discrete_points(cfg["n"], k=3, centers=centers, seed=162)
    Q = np.asarray(clustered_queries(cfg["m"], centers=centers, seed=163))
    mc = MonteCarloPNN(points, s=cfg["s_adaptive"], rng=7)
    planner = QueryPlanner(points)
    tol = cfg["mc_tol"]
    mc.query_matrix(Q[:2], planner=planner)
    t_fixed, fixed = _timeit(lambda: mc.query_matrix(Q, planner=planner))
    t_adaptive, (est, rounds) = _timeit(
        lambda: mc.query_matrix(
            Q, planner=planner, adaptive=True, tol=tol, return_rounds=True
        )
    )
    deviation = float(np.abs(est - fixed).max())
    fixed_again = mc.query_matrix(Q, planner=planner)
    report["results"]["monte_carlo_adaptive"] = {
        "n": cfg["n"],
        "m": cfg["m"],
        "s_rounds": cfg["s_adaptive"],
        "tol": tol,
        "seconds_fixed": t_fixed,
        "seconds_adaptive": t_adaptive,
        "speedup": t_fixed / t_adaptive,
        "mean_rounds": float(rounds.mean()),
        "min_rounds": int(rounds.min()),
        "rounds_saved_fraction": 1.0 - float(rounds.mean()) / cfg["s_adaptive"],
        "max_deviation_from_fixed": deviation,
        "fixed_path_unchanged": bool(np.array_equal(fixed, fixed_again)),
    }
    print_table(
        f"Monte-Carlo adaptive stop, n={cfg['n']}, m={cfg['m']}, "
        f"s={cfg['s_adaptive']}, tol={tol}",
        ["path", "seconds", "mean rounds"],
        [
            ("fixed s", f"{t_fixed:.3f}", str(cfg["s_adaptive"])),
            ("adaptive", f"{t_adaptive:.3f}", f"{rounds.mean():.1f}"),
        ],
    )
    _soft(
        report,
        "mc adaptive=False unchanged",
        bool(np.array_equal(fixed, fixed_again)),
        "fixed-s path not deterministic",
        hard=True,
    )
    _soft(
        report,
        "mc adaptive saves rounds",
        rounds.mean() < cfg["s_adaptive"],
        "no query stopped early",
    )


def bench_engine_sessions(cfg, report):
    """The PR 4 headline: one stateful :class:`repro.Engine` serving
    ``batches`` consecutive expected-NN batches vs the same number of
    per-call ``repro.batch`` facade invocations (which construct and
    discard the session state every time).

    The hot-batch workload repeats one query matrix — the serving
    pattern the session's result cache is built for; bit-identity of
    every batch and the >= 5x speedup are hard assertions.  The
    distinct-batch workload redraws the queries each time, so only the
    build-once amortization helps; its ratio is recorded honestly with
    no bar.  Dynamic updates are cross-checked against freshly built
    engines (hard assertion).
    """
    centers = cluster_centers(cfg["clusters"], seed=171, box=cfg["box"])
    points = clustered_disk_points(cfg["n"], centers=centers, seed=172)
    Q = np.asarray(clustered_queries(cfg["m"], centers=centers, seed=173))
    batches = cfg["batches"]

    batch.expected_nn_many(points, Q[:2])  # warm NumPy / imports
    t0 = time.perf_counter()
    facade_answers = [
        batch.expected_nn_many(points, Q) for _ in range(batches)
    ]
    t_facade = time.perf_counter() - t0

    engine = Engine(points)
    t0 = time.perf_counter()
    engine_answers = [engine.expected_nn_many(Q) for _ in range(batches)]
    t_engine = time.perf_counter() - t0

    identical = all(
        np.array_equal(ei, fi) and np.array_equal(ev, fv)
        for (ei, ev), (fi, fv) in zip(engine_answers, facade_answers)
    )
    speedup = t_facade / t_engine

    # Distinct batches: every batch is a fresh query matrix, so only the
    # build-once columns/planner reuse helps — no cache hits.
    distinct = cfg["distinct_batches"]
    Qs = [
        np.asarray(
            clustered_queries(cfg["m"], centers=centers, seed=180 + j)
        )
        for j in range(distinct)
    ]
    t0 = time.perf_counter()
    facade_distinct = [batch.expected_nn_many(points, Qj) for Qj in Qs]
    t_facade_distinct = time.perf_counter() - t0
    engine2 = Engine(points)
    t0 = time.perf_counter()
    engine_distinct = [engine2.expected_nn_many(Qj) for Qj in Qs]
    t_engine_distinct = time.perf_counter() - t0
    distinct_identical = all(
        np.array_equal(ei, fi) and np.array_equal(ev, fv)
        for (ei, ev), (fi, fv) in zip(engine_distinct, facade_distinct)
    )
    distinct_speedup = t_facade_distinct / t_engine_distinct

    # Build-once: after the first batch the registry builds nothing.
    builds_before = engine2.stats()["registry_builds"]
    engine2.expected_nn_many(Qs[0] + 0.25)
    builds_stable = engine2.stats()["registry_builds"] == builds_before

    # Dynamic updates vs fresh builds.
    extra = clustered_disk_points(16, centers=centers, seed=199)
    engine.insert(extra)
    ii, iv = engine.expected_nn_many(Q)
    fi, fv = Engine(points + extra).expected_nn_many(Q)
    insert_identical = bool(
        np.array_equal(ii, fi) and np.array_equal(iv, fv)
    )
    engine.remove(list(range(8)))
    ri, rv = engine.expected_nn_many(Q)
    gi, gv = Engine((points + extra)[8:]).expected_nn_many(Q)
    remove_identical = bool(
        np.array_equal(ri, gi) and np.array_equal(rv, gv)
    )

    stats = engine.stats()
    report["results"]["engine_repeated_batches"] = {
        "model": "uniform disks, clustered (hot repeated query batch)",
        "n": cfg["n"],
        "m": cfg["m"],
        "batches": batches,
        "seconds_facade": t_facade,
        "seconds_engine": t_engine,
        "speedup_repeated": speedup,
        "identical": bool(identical),
        "distinct_batches": distinct,
        "seconds_facade_distinct": t_facade_distinct,
        "seconds_engine_distinct": t_engine_distinct,
        "speedup_distinct": distinct_speedup,
        "distinct_identical": bool(distinct_identical),
        "registry_builds_stable": bool(builds_stable),
        "insert_identical": insert_identical,
        "remove_identical": remove_identical,
        "engine_memory_bytes": stats["memory_bytes"],
        "engine_built_indexes": stats["built_indexes"],
    }
    print_table(
        f"engine sessions, clustered disks, n={cfg['n']}, m={cfg['m']}, "
        f"{batches} batches",
        ["path", "seconds", "speedup"],
        [
            ("facade (rebuild per call)", f"{t_facade:.3f}", "1.0x"),
            ("engine (one session)", f"{t_engine:.3f}", f"{speedup:.1f}x"),
            (
                f"engine, {distinct} distinct batches",
                f"{t_engine_distinct:.3f}",
                f"{distinct_speedup:.2f}x",
            ),
        ],
    )
    _soft(
        report,
        "engine repeated batches identical",
        identical,
        "engine != facade on the hot batch",
        hard=True,
    )
    _soft(
        report,
        "engine distinct batches identical",
        distinct_identical,
        "engine != facade on distinct batches",
        hard=True,
    )
    _soft(
        report,
        f"engine repeated-batch speedup >= {TARGET_SPEEDUP}x",
        speedup >= TARGET_SPEEDUP,
        f"speedup {speedup:.2f}x below the acceptance bar",
        hard=True,
    )
    _soft(
        report,
        "engine builds nothing after warmup",
        builds_stable,
        "a fresh batch rebuilt registry state",
        hard=True,
    )
    _soft(
        report,
        "engine insert matches fresh build",
        insert_identical,
        "insert-updated engine != fresh engine",
        hard=True,
    )
    _soft(
        report,
        "engine remove matches fresh build",
        remove_identical,
        "remove-updated engine != fresh engine",
        hard=True,
    )


def bench_resilience(cfg, report):
    """PR 7 resilient execution layer.

    * **Happy-path overhead** — the expected-NN workload with live
      resilience checkpoints vs the same run with the checkpoint hook
      stubbed out; the overhead bar is <= 2%.
    * **Snapshot round-trip** — save/load wall time, file size, and
      bit-identical restored answers (hard assertion).
    * **Deadline semantics** — an injected slow traversal level trips
      the deadline: ``on_deadline="raise"`` raises
      :class:`QueryTimeoutError`, ``"degrade"`` returns a complete
      certified result whose non-degraded rows match the clean run
      (both hard assertions).
    * **Crash recovery** — an injected process-pool worker kill is
      retried serially with identical tile results (hard assertion).
    """
    import tempfile

    from repro import QueryTimeoutError, resilience
    from repro.core import parallel as core_parallel
    from repro.resilience import FaultSpec, faults

    centers = cluster_centers(cfg["clusters"], seed=701, box=cfg["box"])
    points = clustered_disk_points(cfg["n"], centers=centers, seed=702)
    Q = np.asarray(clustered_queries(cfg["m"], centers=centers, seed=703))

    engine = Engine(points)
    engine.query(Q[:4], method="expected_nn")  # warm builds + NumPy
    planner = engine.planner()
    reps = 3 if report["quick"] else 5

    def run_workload():
        return planner.expected_nn_many(Q)

    t_checked = min(_timeit(run_workload)[0] for _ in range(reps))
    real_checkpoint = resilience.checkpoint
    try:
        resilience.checkpoint = lambda site, index=None: None
        t_stubbed = min(_timeit(run_workload)[0] for _ in range(reps))
    finally:
        resilience.checkpoint = real_checkpoint
    overhead = t_checked / t_stubbed - 1.0

    base = engine.query(Q, method="expected_nn")

    with tempfile.TemporaryDirectory() as tmp:
        snap = os.path.join(tmp, "engine.npz")
        t_save, _ = _timeit(lambda: engine.save(snap))
        snap_bytes = os.path.getsize(snap)
        t_load, restored = _timeit(lambda: Engine.load(snap))
        res = restored.query(Q, method="expected_nn")
        snapshot_identical = bool(
            np.array_equal(res.answers, base.answers)
            and np.array_equal(res.values, base.values)
        )

    faults.reset_fault_stats()
    with faults.inject(FaultSpec("dual_tree.level", "slow", delay_s=0.2)):
        try:
            Engine(points).query(
                Q, method="expected_nn", deadline_s=0.05
            )
            deadline_raised = False
        except QueryTimeoutError:
            deadline_raised = True
    with faults.inject(FaultSpec("dual_tree.level", "slow", delay_s=0.2)):
        degraded_res = Engine(points).query(
            Q, method="expected_nn", deadline_s=0.05, on_deadline="degrade"
        )
    degraded_rows = int(degraded_res.degraded.sum())
    done = ~degraded_res.degraded
    degrade_clean_rows_identical = bool(
        np.array_equal(
            np.asarray(degraded_res.answers)[done],
            np.asarray(base.answers)[done],
        )
    )

    tiles = [(i * 50, (i + 1) * 50) for i in range(8)]
    expected_tiles = [_tile_checksum(lo, hi) for lo, hi in tiles]
    faults.reset_fault_stats()
    with config.execution(parallel_backend="process", parallel_workers=2):
        with faults.inject(FaultSpec("parallel.tile", "kill", indices=(3,))):
            got_tiles = core_parallel.map_tiles(_tile_checksum, tiles)
    crash_stats = faults.fault_stats()
    crash_recovered = bool(
        got_tiles == expected_tiles and crash_stats["tiles_retried"] >= 1
    )
    faults.reset_fault_stats()

    report["results"]["resilience"] = {
        "model": "clustered uniform disks, expected-NN workload",
        "n": cfg["n"],
        "m": cfg["m"],
        "seconds_with_checkpoints": t_checked,
        "seconds_checkpoints_stubbed": t_stubbed,
        "happy_path_overhead": overhead,
        "snapshot_save_seconds": t_save,
        "snapshot_load_seconds": t_load,
        "snapshot_bytes": snap_bytes,
        "snapshot_identical": snapshot_identical,
        "deadline_raise_triggered": deadline_raised,
        "degraded_rows": degraded_rows,
        "degrade_route": degraded_res.plan["route"],
        "degrade_clean_rows_identical": degrade_clean_rows_identical,
        "crash_recovery_stats": crash_stats,
        "crash_recovery_identical": crash_recovered,
    }
    print_table(
        f"resilient execution, n={cfg['n']}, m={cfg['m']}",
        ["metric", "value"],
        [
            ("checkpoint overhead", f"{overhead * 100:+.2f}%"),
            ("snapshot save / load", f"{t_save:.3f}s / {t_load:.3f}s"),
            ("snapshot size", f"{snap_bytes / 1024:.0f} KiB"),
            ("deadline raise / degrade",
             f"{deadline_raised} / {degraded_rows} rows degraded"),
            ("pool-kill recovery",
             f"retried {crash_stats['tiles_retried']} tile(s)"),
        ],
    )
    if not report["quick"]:
        # The acceptance bar runs on the full workload only — at quick
        # size the measured delta is dominated by timer jitter.
        _soft(
            report,
            "resilience overhead <= 2%",
            overhead <= 0.02,
            f"checkpoint overhead {overhead * 100:.2f}% above the 2% bar",
        )
    _soft(
        report, "snapshot round-trip identical", snapshot_identical,
        "restored engine answers differ", hard=True,
    )
    _soft(
        report, "deadline raise triggered", deadline_raised,
        "injected slow traversal did not raise QueryTimeoutError",
        hard=True,
    )
    _soft(
        report, "degrade returns certified partial answers",
        degraded_rows > 0 and degrade_clean_rows_identical,
        f"degraded_rows={degraded_rows}, "
        f"clean rows identical={degrade_clean_rows_identical}",
        hard=True,
    )
    _soft(
        report, "process-pool crash recovery identical", crash_recovered,
        f"tiles={got_tiles == expected_tiles}, stats={crash_stats}",
        hard=True,
    )


def bench_cluster(cfg, report):
    """PR 8 supervised sharded engine cluster.

    * **Scaling curve** — one expected-NN exact batch over shared-memory
      shard workers at increasing shard counts vs the single-process
      engine; every sharded answer is bit-identical (hard assertion).
    * **Failover identity** — a worker killed mid-query (injected at
      ``cluster.shard_query``) is respawned and the resent shard request
      merges into the exact serial answer (hard assertion).
    * **Degradation latency** — with one shard drained past recovery the
      batch still completes promptly, every row honestly flagged in the
      ``degraded`` mask and the answers exact over the surviving shards
      (hard assertion).
    """
    from repro import ShardedEngine
    from repro.cluster import SHARD_QUERY_SITE
    from repro.constructions import random_disk_points, random_queries
    from repro.resilience import FaultSpec, faults
    from repro.resilience.retry import RetryPolicy

    n, m = cfg["n_cluster"], cfg["m_cluster"]
    points = random_disk_points(n, seed=801, box=1000.0)
    Q = np.asarray(random_queries(m, 802, (0.0, 0.0, 1000.0, 1000.0)))

    engine = Engine(points)
    engine.query(Q[:2], method="expected_nn", tier="exact")  # warm builds
    t_serial, base = _timeit(
        lambda: engine.query(Q, method="expected_nn", tier="exact")
    )

    # The per-attempt shard timeout is an operator knob sized to the
    # workload: on a host where every worker shares the same cores one
    # shard's wall time can approach the full serial time, so a fixed
    # small default would misread healthy-but-busy workers as dead.
    shard_timeout = max(60.0, 4.0 * t_serial)

    curve = []
    all_identical = True
    for shards in cfg["cluster_shards"]:
        with ShardedEngine(
            points, shards=shards, shard_timeout_s=shard_timeout
        ) as ce:
            ce.query(Q[:2], method="expected_nn", tier="exact")  # warm workers
            t, res = _timeit(
                lambda: ce.query(Q, method="expected_nn", tier="exact")
            )
            identical = bool(
                np.array_equal(res.answers, base.answers)
                and np.array_equal(res.values, base.values)
            )
        all_identical &= identical
        curve.append({
            "shards": shards,
            "seconds": t,
            "speedup_vs_serial": t_serial / t if t else float("inf"),
            "identical": identical,
        })

    faults.reset_fault_stats()
    retry = RetryPolicy(attempts=3, base_delay_s=0.05)
    with faults.inject(
        FaultSpec(SHARD_QUERY_SITE, "kill", indices=(1,), times=1)
    ):
        with ShardedEngine(
            points, shards=4, retry=retry, shard_timeout_s=shard_timeout
        ) as ce:
            t_failover, res_kill = _timeit(
                lambda: ce.query(Q, method="expected_nn", tier="exact")
            )
            failover_stats = ce.stats()["cluster"]
            failover_identical = bool(
                np.array_equal(res_kill.answers, base.answers)
                and np.array_equal(res_kill.values, base.values)
                and res_kill.degraded is None
            )

            # Degradation latency: one shard drained for good; the batch
            # must complete promptly with the loss flagged per row.
            ce.drain_shard(2)
            t_degraded, res_deg = _timeit(
                lambda: ce.query(Q, method="expected_nn", tier="exact")
            )
            lo, hi = ce.shard_map()[2]["rows"]
    answers = np.asarray(res_deg.answers)
    degradation_honest = bool(
        res_deg.degraded is not None
        and res_deg.degraded.all()
        and res_deg.plan["dead_shards"] == [2]
        and len(answers) == m
        and not np.any((answers >= lo) & (answers < hi))
    )
    faults.reset_fault_stats()

    report["results"]["cluster"] = {
        "model": "uniform disks, expected-NN exact batch",
        "n": n,
        "m": m,
        # Shard work overlaps across worker processes, so the speedup
        # ceiling is the host's core count — on a 1-CPU host the curve
        # is flat and only the robustness guarantees are exercised.
        "cpus": os.cpu_count(),
        "shard_timeout_s": shard_timeout,
        "seconds_serial": t_serial,
        "scaling": curve,
        "failover_seconds": t_failover,
        "failover_identical": failover_identical,
        "failover_respawns": failover_stats["respawns"],
        "failover_retries": failover_stats["retries"],
        "degraded_seconds": t_degraded,
        "degraded_route": res_deg.plan["route"],
        "degradation_honest": degradation_honest,
    }
    print_table(
        f"sharded engine cluster, n={n}, m={m}",
        ["metric", "value"],
        [("serial", f"{t_serial:.3f}s")]
        + [
            (
                f"{c['shards']} shard(s)",
                f"{c['seconds']:.3f}s ({c['speedup_vs_serial']:.2f}x, "
                f"identical={c['identical']})",
            )
            for c in curve
        ]
        + [
            ("kill-mid-query failover",
             f"{t_failover:.3f}s, respawns={failover_stats['respawns']}, "
             f"identical={failover_identical}"),
            ("one shard dead", f"{t_degraded:.3f}s, all rows flagged"),
        ],
    )
    _soft(
        report, "sharded answers identical at every shard count",
        all_identical, f"scaling curve={curve}", hard=True,
    )
    _soft(
        report, "kill-during-query failover reproduces the serial answer",
        failover_identical and failover_stats["respawns"] >= 1,
        f"identical={failover_identical}, stats={failover_stats}",
        hard=True,
    )
    _soft(
        report, "dead shard degrades honestly and completely",
        degradation_honest,
        f"route={res_deg.plan.get('route')}, "
        f"degraded={None if res_deg.degraded is None else int(res_deg.degraded.sum())}",
        hard=True,
    )
    _soft(
        report, "degraded query latency within 5x of healthy sharded run",
        t_degraded <= 5.0 * max(t_failover, 1e-9) + 1.0,
        f"degraded={t_degraded:.3f}s vs failover={t_failover:.3f}s",
    )


def bench_service(cfg, report):
    """PR 9 multi-tenant query service: batch coalescing throughput.

    A storm of concurrent *small* queries (1-4 rows each) is pushed
    through the coalescing request queue and through an identical queue
    with coalescing disabled; same dataset, same warmed engine, same
    thread count, distinct query matrices per request (so the result
    cache never serves either side).  Reported: wall-clock throughput
    of both modes, the realized batch-size distribution, and the
    speedup.  Hard assertion: every coalesced answer is **bit-identical**
    to a serial ``Engine.query`` of that request alone.  Acceptance bar
    (full config): coalescing >= ``TARGET_SERVICE_SPEEDUP``x the
    per-request baseline.
    """
    import threading

    from repro import QuerySpec
    from repro.constructions import random_discrete_points, random_queries
    from repro.service import DatasetRegistry, RequestQueue

    n, clients = cfg["n_service"], cfg["service_clients"]
    points = random_discrete_points(n, 4, seed=901)
    registry = DatasetRegistry()
    registry.create("bench", points=points)
    ds = registry.get("bench")
    spec = QuerySpec(method="expected_nn")
    rng = np.random.default_rng(902)

    def jobs(tag):
        out = []
        for i in range(clients):
            m = int(rng.integers(1, 5))
            out.append(
                np.asarray(
                    random_queries(
                        m, seed=hash((tag, i)) % (2**31), bbox=(0, 0, 100, 100)
                    )
                )
            )
        return out

    ds.engine.query(jobs("warm")[0], spec)  # build indexes outside timing

    def storm(queue, Qs):
        results = [None] * len(Qs)
        errors = []
        barrier = threading.Barrier(len(Qs) + 1)

        def client(i):
            barrier.wait()
            try:
                results[i] = queue.query("bench", spec, Qs[i], timeout=600)
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(Qs))
        ]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        if errors:
            raise errors[0]
        return elapsed, results

    solo_jobs, co_jobs = jobs("solo"), jobs("co")

    queue_off = RequestQueue(registry, coalesce=False)
    t_solo, solo_results = storm(queue_off, solo_jobs)
    queue_off.close()

    queue_on = RequestQueue(registry)
    t_co, co_results = storm(queue_on, co_jobs)
    stats = dict(queue_on.counters)
    queue_on.close()

    # Bit-identity of every coalesced answer against a fresh serial
    # engine (fresh so no shared cache can mask a split bug).
    serial = Engine(random_discrete_points(n, 4, seed=901))
    identical = True
    for Q, res in zip(co_jobs, co_results):
        ref = serial.query(Q, spec)
        if not (
            np.array_equal(np.asarray(res.answers), np.asarray(ref.answers))
            and np.array_equal(res.values, ref.values)
            and res.m == len(Q)
        ):
            identical = False
    registry.close_all()

    thr_solo = clients / max(t_solo, 1e-9)
    thr_co = clients / max(t_co, 1e-9)
    speedup = t_solo / max(t_co, 1e-9)
    batches = max(stats["batches"], 1)
    report["results"]["service"] = {
        "n": n,
        "clients": clients,
        "seconds_per_request_mode": t_solo,
        "seconds_coalesced_mode": t_co,
        "throughput_per_request_mode": thr_solo,
        "throughput_coalesced_mode": thr_co,
        "speedup": speedup,
        "executed_batches": stats["batches"],
        "coalesced_batches": stats["coalesced_batches"],
        "coalesced_requests": stats["coalesced_requests"],
        "mean_batch_size": stats["submitted"] / batches,
        "coalesced_identical_to_serial": identical,
    }
    print_table(
        f"service coalescing, n={n}, {clients} concurrent clients",
        ["mode", "value"],
        [
            ("per-request", f"{t_solo:.3f}s ({thr_solo:.0f} req/s)"),
            ("coalesced", f"{t_co:.3f}s ({thr_co:.0f} req/s)"),
            ("speedup", f"{speedup:.2f}x"),
            (
                "batches",
                f"{stats['batches']} for {clients} requests "
                f"(mean {stats['submitted'] / batches:.1f} req/batch)",
            ),
            ("identical", str(identical)),
        ],
    )
    _soft(
        report, "coalesced answers bit-identical to serial execution",
        identical, f"clients={clients}", hard=True,
    )
    _soft(
        report, "coalescing actually grouped the storm",
        stats["coalesced_batches"] >= 1
        and stats["batches"] < clients,
        f"batches={stats['batches']} for {clients} requests",
        hard=True,
    )
    if not report["quick"]:
        _soft(
            report,
            f"coalesced throughput >= {TARGET_SERVICE_SPEEDUP}x per-request",
            speedup >= TARGET_SERVICE_SPEEDUP,
            f"speedup={speedup:.2f}x "
            f"({thr_co:.0f} vs {thr_solo:.0f} req/s)",
        )


def bench_wal(cfg, report):
    """PR 10 crash-consistent durability.

    * **Ingest overhead** — the same insert-batch workload through a
      plain in-memory engine and through ``Engine.open_durable`` under
      each fsync policy; the acceptance bar is <= 25% overhead under
      ``fsync="interval"`` (hard assertion — the WAL must not tax the
      write path it exists to protect).
    * **Replay throughput** — recovery of a log holding
      ``wal_replay_records`` mutation records (1-point inserts with a
      remove every ``wal_remove_every``) over the base snapshot; the
      bar is >= 10k records/s (hard assertion), and the recovered
      engine must answer bit-identically to a fresh engine built from
      the same surviving points (hard assertion).
    * **Compaction** — snapshot-then-truncate wall time and the log
      shrinking back to its single marker record (hard assertion).
    * **Kill -9 round** — a child process is SIGKILLed mid-frame at the
      ``wal.append`` fault site; recovery must surface exactly the
      acknowledged inserts, bit-identical to a fresh build (hard
      assertion).  The full chaos matrix lives in
      ``tests/test_wal_chaos.py``; this round keeps the durability
      contract on the benchmark trajectory.
    """
    import shutil
    import subprocess
    import tempfile

    from repro import QuerySpec, io as repro_io
    from repro.constructions import random_discrete_points, random_queries
    from repro.resilience import wal as walmod

    n = cfg["n_wal"]
    batches, bpts = cfg["wal_batches"], cfg["wal_batch_points"]
    points = random_discrete_points(n, 3, seed=1001)
    batch_points = [
        random_discrete_points(bpts, 3, seed=1010 + j) for j in range(batches)
    ]
    Q = np.asarray(random_queries(64, seed=1002, bbox=(0, 0, 100, 100)))
    spec = QuerySpec(method="expected_nn")
    reps = 2 if report["quick"] else 3

    def ingest_plain():
        eng = Engine(points)
        eng.query(Q, spec)  # build the column store: inserts then pay
        t0 = time.perf_counter()  # their real incremental-extend cost
        for bp in batch_points:
            eng.insert(bp)
        return time.perf_counter() - t0

    def ingest_durable(policy):
        tmp = tempfile.mkdtemp(prefix="walbench-")
        try:
            with config.durability(
                fsync=policy,
                fsync_interval_s=0.05,
                compact_bytes=1 << 62,
                compact_records=1 << 62,
            ):
                eng = Engine.open_durable(os.path.join(tmp, "d"), points)
                eng.query(Q, spec)
                t0 = time.perf_counter()
                for bp in batch_points:
                    eng.insert(bp)
                elapsed = time.perf_counter() - t0
                stats = eng.stats()["wal"]
                eng.close()
            return elapsed, stats
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    ingest_plain()  # warm NumPy + column summarisation
    t_plain = min(ingest_plain() for _ in range(reps))
    t_interval, stats_interval = min(
        (ingest_durable("interval") for _ in range(reps)), key=lambda r: r[0]
    )
    t_always, stats_always = ingest_durable("always")
    t_off, _ = ingest_durable("off")
    overhead_interval = t_interval / t_plain - 1.0
    mutated = batches * bpts

    # Replay throughput: synthesise a long mutation history directly in
    # the log (the engine writes the identical frames), tracking the
    # surviving points alongside so recovery has an exact reference.
    records_target = cfg["wal_replay_records"]
    remove_every = cfg["wal_remove_every"]
    tmp = tempfile.mkdtemp(prefix="walbench-replay-")
    ddir = os.path.join(tmp, "d")
    try:
        seeded = Engine.open_durable(ddir, points)
        base_gen = seeded.generation
        seeded.close()
        with config.durability(fsync="off"):
            log = walmod.WriteAheadLog.open(
                os.path.join(ddir, Engine.WAL_NAME),
                base_generation=base_gen,
                base_n=n,
            )
            expected = list(points)
            gen = base_gen
            t0 = time.perf_counter()
            for r in range(records_target):
                gen += 1
                if r % remove_every == remove_every - 1 and len(expected) > 1:
                    log.append("remove", {"ids": [0]}, generation=gen)
                    expected.pop(0)
                else:
                    p = random_discrete_points(1, 2, seed=5000 + r)[0]
                    log.append(
                        "insert",
                        {"points": repro_io.points_to_wire([p])},
                        generation=gen,
                    )
                    expected.append(p)
            t_build_log = time.perf_counter() - t0
            log_bytes = log.size_bytes
            log.close()

        t_replay, recovered = float("inf"), None
        for _ in range(reps):
            t0 = time.perf_counter()
            eng = Engine.open_durable(ddir)
            dt = time.perf_counter() - t0
            if dt < t_replay:
                if recovered is not None:
                    recovered.close()
                t_replay, recovered = dt, eng
            else:
                eng.close()
        replayed = recovered.stats()["wal"]["replayed"]
        replay_rate = replayed / max(t_replay, 1e-9)

        reference = Engine(expected)
        res_rec = recovered.query(Q, spec)
        res_ref = reference.query(Q, spec)
        replay_identical = bool(
            len(recovered) == len(expected)
            and recovered.generation == base_gen + records_target
            and np.array_equal(res_rec.answers, res_ref.answers)
            and np.array_equal(res_rec.values, res_ref.values)
        )

        # Compaction folds the whole history back into the snapshot.
        t_compact, _ = _timeit(recovered.compact)
        stats_after = recovered.stats()["wal"]
        compacted = (
            stats_after["records"] == 1 and stats_after["rotations"] == 1
        )
        recovered.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Kill -9 round: a child dies mid-frame; only acked inserts survive.
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    child = (
        "import os, sys\n"
        "from repro import Engine\n"
        "from repro.constructions import random_discrete_points\n"
        "engine = Engine.open_durable(sys.argv[1])\n"
        "for i in range(6):\n"
        "    engine.insert(random_discrete_points(16, 2, seed=300 + i))\n"
        "    with open(sys.argv[2], 'a') as f:\n"
        "        f.write(f'{i}\\n')\n"
        "        f.flush()\n"
        "        os.fsync(f.fileno())\n"
    )
    tmp = tempfile.mkdtemp(prefix="walbench-kill-")
    ddir = os.path.join(tmp, "d")
    ack = os.path.join(tmp, "ack")
    try:
        seeded = Engine.open_durable(ddir, points)
        base_n, base_gen = len(seeded), seeded.generation
        seeded.close()
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # Marker is record 0, insert i appends as record i + 1: a kill
        # planted at index 4 tears insert 3's frame; 0-2 are acked.
        env["REPRO_FAULT_PLAN"] = json.dumps(
            [{"site": "wal.append", "kind": "kill", "indices": [4]}]
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, ddir, ack],
            env=env, capture_output=True, text=True, timeout=300,
        )
        acked = []
        if os.path.exists(ack):
            with open(ack) as fh:
                acked = [int(x) for x in fh.read().split()]
        t_recover0 = time.perf_counter()
        survivor = Engine.open_durable(ddir)
        t_recover = time.perf_counter() - t_recover0
        fresh = Engine(
            points
            + [
                p
                for i in acked
                for p in random_discrete_points(16, 2, seed=300 + i)
            ]
        )
        res_s = survivor.query(Q, spec)
        res_f = fresh.query(Q, spec)
        kill_ok = bool(
            proc.returncode == 17
            and acked == [0, 1, 2]
            and len(survivor) == base_n + 16 * len(acked)
            and survivor.generation == base_gen + len(acked)
            and np.array_equal(res_s.answers, res_f.answers)
            and np.array_equal(res_s.values, res_f.values)
        )
        torn = survivor.stats()["wal"]["torn_bytes_truncated"]
        survivor.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report["results"]["wal"] = {
        "model": "discrete uncertain points, insert-batch ingest",
        "n_base": n,
        "ingest_batches": batches,
        "ingest_batch_points": bpts,
        "points_mutated": mutated,
        "seconds_ingest_plain": t_plain,
        "seconds_ingest_fsync_interval": t_interval,
        "seconds_ingest_fsync_always": t_always,
        "seconds_ingest_fsync_off": t_off,
        "ingest_overhead_interval": overhead_interval,
        "ingest_overhead_always": t_always / t_plain - 1.0,
        "ingest_overhead_off": t_off / t_plain - 1.0,
        "fsyncs_interval": stats_interval["fsyncs"],
        "fsyncs_always": stats_always["fsyncs"],
        "wal_bytes_per_point": stats_always["bytes_written"] / mutated,
        "replay_records": int(replayed),
        "replay_log_bytes": int(log_bytes),
        "seconds_build_log": t_build_log,
        "seconds_replay": t_replay,
        "replay_records_per_s": replay_rate,
        "replay_identical": replay_identical,
        "seconds_compact": t_compact,
        "compacted_to_marker": compacted,
        "kill9_acked_batches": acked,
        "kill9_torn_bytes": int(torn),
        "kill9_recovery_seconds": t_recover,
        "kill9_acked_survive_exactly": kill_ok,
    }
    print_table(
        f"write-ahead log, base n={n}, "
        f"{batches} x {bpts}-point insert batches",
        ["metric", "value"],
        [
            ("ingest plain", f"{t_plain:.3f}s"),
            ("ingest fsync=interval",
             f"{t_interval:.3f}s ({overhead_interval * 100:+.1f}%)"),
            ("ingest fsync=always",
             f"{t_always:.3f}s ({(t_always / t_plain - 1) * 100:+.1f}%, "
             f"{stats_always['fsyncs']} fsyncs)"),
            ("ingest fsync=off", f"{t_off:.3f}s"),
            ("replay",
             f"{replayed} records in {t_replay:.3f}s "
             f"({replay_rate:,.0f} rec/s)"),
            ("compaction", f"{t_compact:.3f}s"),
            ("kill -9 round",
             f"acked={acked}, torn={torn}B, "
             f"recovered in {t_recover:.3f}s"),
        ],
    )
    _soft(
        report,
        "wal ingest overhead (fsync=interval) <= 25%",
        overhead_interval <= 0.25,
        f"overhead {overhead_interval * 100:.1f}% above the bar "
        f"(plain {t_plain:.3f}s vs durable {t_interval:.3f}s)",
        hard=True,
    )
    _soft(
        report,
        "wal replay >= 10k records/s",
        replay_rate >= 10_000,
        f"replay {replay_rate:,.0f} records/s below the bar",
        hard=True,
    )
    _soft(
        report,
        "wal recovery bit-identical to fresh build",
        replay_identical,
        "recovered engine != fresh engine over the surviving points",
        hard=True,
    )
    _soft(
        report,
        "wal compaction resets the log to its marker",
        compacted,
        f"post-compaction stats: {stats_after}",
        hard=True,
    )
    _soft(
        report,
        "kill -9: acked writes survive exactly, unacked vanish",
        kill_ok,
        f"rc={proc.returncode}, acked={acked}, stderr={proc.stderr[-500:]}",
        hard=True,
    )


def _tile_checksum(lo, hi):
    """Module-level (hence picklable) benchmark tile payload."""
    return (lo + hi) * (hi - lo)


def _soft(report, name: str, ok: bool, detail: str, hard: bool = False) -> None:
    """Record an assertion.  Soft failures (timing bars) only flip the
    report flag; hard failures (answer identity) always fail the run."""
    report["soft_assertions"].append(
        {"name": name, "ok": bool(ok), "hard": bool(hard), "detail": None if ok else detail}
    )
    if not ok:
        kind = "HARD" if hard else "soft"
        print(f"[{kind}-assert FAILED] {name}: {detail}", file=sys.stderr)
        if hard:
            report["hard_failure"] = True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="CI-sized smoke run")
    ap.add_argument(
        "--strict", action="store_true", help="exit 1 if a soft assertion fails"
    )
    ap.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_pr3.json"),
        help="output JSON path (default: repo-root BENCH_pr3.json)",
    )
    ap.add_argument(
        "--out-engine",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_pr4.json"),
        help="engine-session report path (default: repo-root BENCH_pr4.json)",
    )
    ap.add_argument(
        "--engine-only",
        action="store_true",
        help="run only the PR 4 engine-session benchmark",
    )
    ap.add_argument(
        "--out-resilience",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_pr7.json"),
        help="resilience report path (default: repo-root BENCH_pr7.json)",
    )
    ap.add_argument(
        "--resilience-only",
        action="store_true",
        help="run only the PR 7 resilience benchmark",
    )
    ap.add_argument(
        "--out-cluster",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_pr8.json"),
        help="sharded-cluster report path (default: repo-root BENCH_pr8.json)",
    )
    ap.add_argument(
        "--cluster-only",
        action="store_true",
        help="run only the PR 8 sharded-cluster benchmark",
    )
    ap.add_argument(
        "--out-service",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_pr9.json"),
        help="query-service report path (default: repo-root BENCH_pr9.json)",
    )
    ap.add_argument(
        "--service-only",
        action="store_true",
        help="run only the PR 9 query-service benchmark",
    )
    ap.add_argument(
        "--out-wal",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_pr10.json"),
        help="durability report path (default: repo-root BENCH_pr10.json)",
    )
    ap.add_argument(
        "--wal-only",
        action="store_true",
        help="run only the PR 10 write-ahead-log benchmark",
    )
    args = ap.parse_args(argv)
    only_flags = (
        args.engine_only, args.resilience_only, args.cluster_only,
        args.service_only, args.wal_only,
    )
    if sum(only_flags) > 1:
        ap.error(
            "--engine-only, --resilience-only, --cluster-only, "
            "--service-only and --wal-only are mutually exclusive"
        )

    if args.quick:
        cfg = {
            "n": 400,
            "m": 200,
            "m_exact": 60,
            "clusters": 12,
            "box": 250.0,
            "s_rounds": 32,
            "k_locations": 8,
            "n_threshold": 150,
            "m_threshold": 40,
            "eps": 0.5,
            "rel": 0.1,
            "tile_bytes": 256 * 1024,
            "mc_tol": 0.15,
            "s_adaptive": 256,
            "batches": 20,
            "distinct_batches": 3,
            "n_cluster": 5000,
            "m_cluster": 48,
            "cluster_shards": [1, 2, 4],
            "n_service": 800,
            "service_clients": 16,
            "n_wal": 300,
            "wal_batches": 8,
            "wal_batch_points": 256,
            "wal_replay_records": 4000,
            "wal_remove_every": 500,
        }
    else:
        cfg = {
            "n": 2000,
            "m": 1000,
            "m_exact": 100,
            "clusters": 25,
            "box": 600.0,
            "s_rounds": 128,
            "k_locations": 8,
            "n_threshold": 600,
            "m_threshold": 150,
            "eps": 0.5,
            "rel": 0.1,
            "tile_bytes": 8 * 1024 * 1024,
            "mc_tol": 0.1,
            "s_adaptive": 512,
            "batches": 20,
            "distinct_batches": 3,
            "n_cluster": 100000,
            "m_cluster": 64,
            "cluster_shards": [1, 2, 4, 8],
            "n_service": 2500,
            "service_clients": 64,
            "n_wal": 800,
            "wal_batches": 12,
            "wal_batch_points": 512,
            "wal_replay_records": 20000,
            "wal_remove_every": 500,
        }

    failed = []
    hard_failure = False

    skip_core = (
        args.engine_only or args.resilience_only or args.cluster_only
        or args.service_only or args.wal_only
    )
    if not skip_core:
        report = {
            "pr": 3,
            "benchmark": (
                "sublinear eps-approximate query tier + tiled, parallel "
                "bound-pass execution"
            ),
            "quick": bool(args.quick),
            "config": cfg,
            "results": {},
            "soft_assertions": [],
        }
        bench_expected_nn_disks(cfg, report)
        bench_expected_nn_discrete(cfg, report)
        bench_monte_carlo_pnn(cfg, report)
        bench_nonzero(cfg, report)
        bench_threshold(cfg, report)
        bench_approx_tier(cfg, report)
        bench_tiled_vs_flat(cfg, report)
        bench_mc_adaptive(cfg, report)
        failed += [
            a["name"] for a in report["soft_assertions"] if not a["ok"]
        ]
        report["all_assertions_passed"] = not failed
        hard_failure |= bool(report.get("hard_failure"))
        out = os.path.abspath(args.out)
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {out}")

    if not (
        args.resilience_only or args.cluster_only or args.service_only
        or args.wal_only
    ):
        report4 = {
            "pr": 4,
            "benchmark": (
                "stateful Engine sessions: build-once datasets, cached index "
                "registry, repeated-batch serving vs the per-call facade"
            ),
            "quick": bool(args.quick),
            "config": {
                k: cfg[k]
                for k in (
                    "n", "m", "clusters", "box", "batches", "distinct_batches"
                )
            },
            "results": {},
            "soft_assertions": [],
        }
        bench_engine_sessions(cfg, report4)
        failed4 = [a["name"] for a in report4["soft_assertions"] if not a["ok"]]
        report4["all_assertions_passed"] = not failed4
        failed += failed4
        hard_failure |= bool(report4.get("hard_failure"))
        out4 = os.path.abspath(args.out_engine)
        with open(out4, "w") as fh:
            json.dump(report4, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out4}")

    if not (
        args.engine_only or args.cluster_only or args.service_only
        or args.wal_only
    ):
        report7 = {
            "pr": 7,
            "benchmark": (
                "resilient execution layer: deadlines, memory-budget "
                "admission, snapshot/restore, fault-injection recovery"
            ),
            "quick": bool(args.quick),
            "config": {
                k: cfg[k] for k in ("n", "m", "clusters", "box")
            },
            "results": {},
            "soft_assertions": [],
        }
        bench_resilience(cfg, report7)
        failed7 = [a["name"] for a in report7["soft_assertions"] if not a["ok"]]
        report7["all_assertions_passed"] = not failed7
        failed += failed7
        hard_failure |= bool(report7.get("hard_failure"))
        out7 = os.path.abspath(args.out_resilience)
        with open(out7, "w") as fh:
            json.dump(report7, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out7}")

    if not (
        args.engine_only or args.resilience_only or args.service_only
        or args.wal_only
    ):
        report8 = {
            "pr": 8,
            "benchmark": (
                "supervised sharded engine cluster: shared-memory shards, "
                "heartbeats, failover, honest partial results"
            ),
            "quick": bool(args.quick),
            "config": {
                k: cfg[k] for k in ("n_cluster", "m_cluster", "cluster_shards")
            },
            "results": {},
            "soft_assertions": [],
        }
        bench_cluster(cfg, report8)
        failed8 = [a["name"] for a in report8["soft_assertions"] if not a["ok"]]
        report8["all_assertions_passed"] = not failed8
        failed += failed8
        hard_failure |= bool(report8.get("hard_failure"))
        out8 = os.path.abspath(args.out_cluster)
        with open(out8, "w") as fh:
            json.dump(report8, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out8}")

    if not (
        args.engine_only or args.resilience_only or args.cluster_only
        or args.wal_only
    ):
        report9 = {
            "pr": 9,
            "benchmark": (
                "multi-tenant query service: coalescing request queue "
                "merging concurrent small queries into planner batches"
            ),
            "quick": bool(args.quick),
            "config": {
                k: cfg[k] for k in ("n_service", "service_clients")
            },
            "results": {},
            "soft_assertions": [],
        }
        bench_service(cfg, report9)
        failed9 = [a["name"] for a in report9["soft_assertions"] if not a["ok"]]
        report9["all_assertions_passed"] = not failed9
        failed += failed9
        hard_failure |= bool(report9.get("hard_failure"))
        out9 = os.path.abspath(args.out_service)
        with open(out9, "w") as fh:
            json.dump(report9, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out9}")

    if not (
        args.engine_only or args.resilience_only or args.cluster_only
        or args.service_only
    ):
        report10 = {
            "pr": 10,
            "benchmark": (
                "crash-consistent durability: write-ahead log ingest "
                "overhead, replay recovery throughput, kill -9 survival"
            ),
            "quick": bool(args.quick),
            "config": {
                k: cfg[k]
                for k in (
                    "n_wal", "wal_batches", "wal_batch_points",
                    "wal_replay_records", "wal_remove_every",
                )
            },
            "results": {},
            "soft_assertions": [],
        }
        bench_wal(cfg, report10)
        failed10 = [
            a["name"] for a in report10["soft_assertions"] if not a["ok"]
        ]
        report10["all_assertions_passed"] = not failed10
        failed += failed10
        hard_failure |= bool(report10.get("hard_failure"))
        out10 = os.path.abspath(args.out_wal)
        with open(out10, "w") as fh:
            json.dump(report10, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out10}")

    if failed:
        print(f"assertions failed: {', '.join(failed)}", file=sys.stderr)
        if hard_failure:
            # Answer-identity regressions are correctness bugs, not
            # timing jitter: fatal even without --strict.
            return 1
        if args.strict:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
