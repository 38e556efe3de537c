"""The closed-form expected distance to a uniform disk.

:func:`repro.geometry.kernels.disk_expected_distance` is checked against
scipy references to 1e-12 relative: the complete elliptic integrals
inside the disk and ``d * 2F1(-1/2, -1/2; 2; (R/d)^2)`` outside, across
its branch edges (the center, ``d = R`` exactly and on either side of
it, the switch to the series at ``d = 1.5 R``, far queries, tiny
radii).  Every caller — the model's scalar and batch methods and the
grouped evaluator — must return the same doubles, so the exact, pruned
and approx tiers agree bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

special = pytest.importorskip("scipy.special")

from repro import QueryPlanner  # noqa: E402
from repro.core import evaluators  # noqa: E402
from repro.geometry import kernels  # noqa: E402
from repro.uncertain import ModelColumns, UniformDiskPoint  # noqa: E402

REL = 1e-12


def reference(d: float, R: float) -> float:
    if d < R:
        m = (d / R) ** 2
        return 4.0 * R / (9.0 * math.pi) * (
            (7.0 + m) * special.ellipe(m) - 4.0 * (1.0 - m) * special.ellipk(m)
        )
    return d * special.hyp2f1(-0.5, -0.5, 2.0, (R / d) ** 2)


def _assert_close(d, R):
    got = kernels.disk_expected_distance(np.asarray(d, dtype=float), R)
    for di, gi in zip(np.atleast_1d(d), np.atleast_1d(got)):
        want = reference(float(di), float(R))
        assert abs(gi - want) <= REL * want, (di, R, gi, want)


@pytest.mark.parametrize("R", [1.0, 3.7, 1e-9, 1e6])
@pytest.mark.parametrize(
    "rho",
    [0.0, 1e-8, 0.4, 1 - 1e-6, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-6,
     1.5 * (1 - 1e-15), 1.5, 1.5 * (1 + 1e-15), 2.0, 10.0, 1e3, 1e6],
)
def test_branch_edges_match_reference(rho, R):
    _assert_close(rho * R, R)


def test_exact_values_at_center_and_rim():
    R = np.array([1.0, 2.5, 1e-9, 7e5])
    assert np.allclose(
        kernels.disk_expected_distance(np.zeros(4), R), 2.0 * R / 3.0,
        rtol=1e-15, atol=0.0,
    )
    # d == R exactly takes its own branch: the AGM diverges at m = 1.
    assert np.array_equal(
        kernels.disk_expected_distance(R, R), (32.0 / (9.0 * np.pi)) * R
    )


@settings(max_examples=300, deadline=None)
@given(
    log_rho=st.floats(min_value=-9.0, max_value=7.0),
    log_R=st.floats(min_value=-9.0, max_value=6.0),
)
def test_log_uniform_rho_and_radius(log_rho, log_R):
    R = 10.0 ** log_R
    _assert_close(10.0 ** log_rho * R, R)


def test_jensen_bracket_holds():
    # The prune's expected-distance bracket |q - c| <= E <= |q - c| + R.
    rng = np.random.default_rng(7)
    R = 10.0 ** rng.uniform(-6, 3, 4000)
    d = R * 10.0 ** rng.uniform(-9, 7, 4000)
    d[:8] = 0.0
    d[8:16] = R[8:16]
    E = kernels.disk_expected_distance(d, R)
    assert np.all(d <= E)
    assert np.all(E <= d + R)


def test_elementwise_independent_of_batch():
    # Any grouping of the pairs returns the same doubles.
    rng = np.random.default_rng(3)
    R = rng.uniform(0.1, 2.0, 500)
    d = R * rng.choice([0.0, 0.5, 1.0, 1.2, 1.5, 3.0, 100.0], 500)
    full = kernels.disk_expected_distance(d, R)
    for i in rng.choice(500, 40, replace=False):
        one = kernels.disk_expected_distance(d[i : i + 1], R[i])
        assert one.tobytes() == full[i : i + 1].tobytes()


def test_model_scalar_batch_and_evaluator_agree():
    disks = [
        UniformDiskPoint((0.0, 0.0), 1.0),
        UniformDiskPoint((3.0, 1.0), 0.5),
        UniformDiskPoint((-2.0, 4.0), 2.0),
    ]
    # Rows at each center, on each rim, inside, just outside, at 1.5 R
    # and far away.
    Q = np.array([
        [0.0, 0.0], [1.0, 0.0], [0.3, 0.2], [1.2, 0.0], [1.5, 0.0],
        [3.0, 1.0], [3.5, 1.0], [3.0, 1.75], [-2.0, 4.0], [-2.0, 6.0],
        [-2.0, 7.0], [50.0, -40.0],
    ])
    cache = evaluators.EvalCache(disks, ModelColumns(disks))
    rows = np.repeat(np.arange(Q.shape[0]), len(disks))
    cols = np.tile(np.arange(len(disks)), Q.shape[0])
    grouped, _ = evaluators.expected_distance_pairs(cache, Q, rows, cols)
    for i, p in enumerate(disks):
        batch = p.expected_distance_many(Q)
        assert batch.tobytes() == grouped[cols == i].tobytes()
        scalar = np.array([p.expected_distance(tuple(q)) for q in Q])
        assert scalar.tobytes() == batch.tobytes()
    planner = QueryPlanner(disks)
    pw, pv = planner.expected_nn_many(Q)
    ew, ev = planner.expected_nn_many(Q, tier="exact")
    assert np.array_equal(pw, ew) and pv.tobytes() == ev.tobytes()
