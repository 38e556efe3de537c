"""NumPy array kernels for the batch-query engine.

Every scalar geometric primitive on a hot query path has a batched twin
here: the scalar code in :mod:`repro.geometry` answers one query at a
time with pure-Python arithmetic, while these kernels evaluate the same
quantity for a whole ``(m, 2)`` query matrix (and, where it applies, a
whole ``(k, 4)`` rectangle set) in a handful of vectorized operations.
The uncertain-point models (:mod:`repro.uncertain`), the indexes
(:mod:`repro.index`) and the core engines (:mod:`repro.core`) all route
their ``*_many`` batch entry points through this module.

Exactness policy
----------------
``pairwise_distances``, ``rect_mindist_many``, ``rect_maxdist_many``,
``lens_area_many`` and ``rect_circle_area_many`` are closed-form and
agree with their scalar counterparts to floating-point rounding;
:func:`disk_expected_distance` is closed-form to a few ulps.  The
fixed-node composite Gauss--Legendre quadrature
(:func:`batched_tail_quadrature`) trades the scalar code's adaptive
error control for data parallelism; its accuracy is set by the node
count (the defaults land near ``1e-6`` absolute error on the kinked
distance-cdf integrands used in this library).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Tuple

import numpy as np

from ..quadrature import gauss_legendre_rule

__all__ = [
    "as_query_array",
    "as_rect_array",
    "csr_rows",
    "csr_segment_gather",
    "pairwise_sq_distances",
    "pairwise_distances",
    "rect_mindist",
    "rect_maxdist",
    "rect_mindist_many",
    "rect_maxdist_many",
    "kth_smallest_rowwise",
    "rect_rect_mindist_pairs",
    "rect_rect_maxdist_pairs",
    "rect_rect_mindist_many",
    "rect_rect_maxdist_many",
    "lens_area_many",
    "disk_expected_distance",
    "disk_halfplane_corner_area",
    "rect_circle_area_many",
    "points_in_polygon_many",
    "gauss_legendre_nodes",
    "batched_tail_quadrature",
]


# -- input normalisation -----------------------------------------------------

def as_query_array(qs) -> np.ndarray:
    """Normalise queries to a float64 array of shape ``(m, 2)``.

    Accepts a single ``(x, y)`` pair, a sequence of pairs, or an
    ``(m, 2)`` array.  A single pair becomes a one-row matrix; an empty
    sequence (``[]``, shape ``(0,)`` or ``(0, 2)``) becomes the empty
    query matrix.  Malformed shapes and non-finite coordinates (NaN /
    inf would silently poison every distance kernel downstream) are
    rejected with :class:`repro.errors.QueryError` — a ``ValueError``
    subclass, so pre-taxonomy callers keep working.
    """
    from ..errors import QueryError

    try:
        arr = np.asarray(qs, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"queries are not numeric coordinates: {exc}") from exc
    if arr.ndim == 1:
        if arr.shape[0] == 0:
            return arr.reshape(0, 2)
        if arr.shape[0] != 2:
            raise QueryError(f"query array of shape {arr.shape}; expected (m, 2)")
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise QueryError(f"query array of shape {arr.shape}; expected (m, 2)")
    if arr.size and not np.isfinite(arr).all():
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        raise QueryError(
            f"query coordinates must be finite; rows {bad[:8].tolist()} "
            f"contain NaN or inf"
        )
    return arr


def as_rect_array(rects) -> np.ndarray:
    """Normalise rectangles to a float64 array of shape ``(k, 4)``."""
    arr = np.asarray(rects, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != 4:
            raise ValueError(f"rect array of shape {arr.shape}; expected (k, 4)")
        arr = arr.reshape(1, 4)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"rect array of shape {arr.shape}; expected (k, 4)")
    return arr


# -- CSR segment gathers -----------------------------------------------------

def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """The row id of every CSR entry: ``indptr`` of shape ``(m + 1,)``
    expands to a ``(nnz,)`` array where entry ``j`` names the row whose
    segment contains position ``j`` — the standard companion of a CSR
    column array (the planner's candidate layout)."""
    m = indptr.shape[0] - 1
    return np.repeat(np.arange(m, dtype=np.intp), np.diff(indptr))


def csr_segment_gather(
    indptr: np.ndarray, cells, copies: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat gather indices for CSR segments, fully vectorized.

    For each ``c`` in ``cells`` (repeated ``copies`` times
    consecutively), emits the index run ``indptr[c] .. indptr[c+1]``;
    the concatenation selects those segments from any array laid out by
    ``indptr``.  Returns ``(gather, lens)`` — the flat index array and
    the per-run segment lengths.  Shared by the quantized-envelope
    builder and the adaptive Monte-Carlo engine, which subset candidate
    CSR layouts per refinement level / per active-query block.
    """
    indptr = np.asarray(indptr)
    cells = np.asarray(cells, dtype=np.intp)
    lens = indptr[cells + 1] - indptr[cells]
    starts = indptr[cells]
    if copies > 1:
        lens = np.repeat(lens, copies)
        starts = np.repeat(starts, copies)
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.intp), lens
    run_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    off = np.arange(total, dtype=np.intp) - np.repeat(run_starts, lens)
    return np.repeat(starts, lens) + off, lens


# -- distances ---------------------------------------------------------------

def pairwise_sq_distances(Q, P) -> np.ndarray:
    """Squared Euclidean distances, shape ``(m, n)``.

    Computed as explicit coordinate differences (not the expanded
    ``|a|^2 + |b|^2 - 2ab`` form, which loses precision for distant
    points).  Matches the scalar ``(px - qx)**2 + (py - qy)**2`` to the
    last ulp — not bit-for-bit, since CPython's ``**2`` routes through
    libm ``pow`` while NumPy multiplies.
    """
    Q = as_query_array(Q)
    P = as_query_array(P)
    dx = Q[:, 0][:, None] - P[:, 0][None, :]
    dy = Q[:, 1][:, None] - P[:, 1][None, :]
    return dx * dx + dy * dy


def pairwise_distances(Q, P) -> np.ndarray:
    """Euclidean distances, shape ``(m, n)``."""
    return np.sqrt(pairwise_sq_distances(Q, P))


def rect_mindist(q, rect) -> float:
    """Minimum distance from ``q`` to the rectangle ``(x0, y0, x1, y1)``.

    The canonical scalar implementation — the kd-tree and R-tree bbox
    bounds are thin aliases of this pair.
    """
    dx = max(rect[0] - q[0], 0.0, q[0] - rect[2])
    dy = max(rect[1] - q[1], 0.0, q[1] - rect[3])
    return math.hypot(dx, dy)


def rect_maxdist(q, rect) -> float:
    """Maximum distance from ``q`` to the rectangle ``(x0, y0, x1, y1)``."""
    dx = max(abs(q[0] - rect[0]), abs(q[0] - rect[2]))
    dy = max(abs(q[1] - rect[1]), abs(q[1] - rect[3]))
    return math.hypot(dx, dy)


def rect_mindist_many(Q, rects) -> np.ndarray:
    """``rect_mindist`` for every query/rectangle pair, shape ``(m, k)``."""
    Q = as_query_array(Q)
    R = as_rect_array(rects)
    qx = Q[:, 0][:, None]
    qy = Q[:, 1][:, None]
    dx = np.maximum(np.maximum(R[None, :, 0] - qx, 0.0), qx - R[None, :, 2])
    dy = np.maximum(np.maximum(R[None, :, 1] - qy, 0.0), qy - R[None, :, 3])
    return np.hypot(dx, dy)


def rect_maxdist_many(Q, rects) -> np.ndarray:
    """``rect_maxdist`` for every query/rectangle pair, shape ``(m, k)``."""
    Q = as_query_array(Q)
    R = as_rect_array(rects)
    qx = Q[:, 0][:, None]
    qy = Q[:, 1][:, None]
    dx = np.maximum(np.abs(qx - R[None, :, 0]), np.abs(qx - R[None, :, 2]))
    dy = np.maximum(np.abs(qy - R[None, :, 1]), np.abs(qy - R[None, :, 3]))
    return np.hypot(dx, dy)


def kth_smallest_rowwise(values: np.ndarray, k: int) -> np.ndarray:
    """The ``k``-th smallest entry of every row of ``values``.

    This is the planner's pruning-cutoff selector.  The dual-tree leaf
    refinement and the flat bound pass the tests keep as its oracle must
    select the *identical float* for their survivor sets to match bit
    for bit, so there is exactly one implementation.
    """
    if values.shape[1] == k:
        return values.max(axis=1)
    return np.partition(values, k - 1, axis=1)[:, k - 1]


def rect_rect_mindist_pairs(A, B) -> np.ndarray:
    """Minimum distance between paired rectangles, shape ``(k,)``.

    ``A`` and ``B`` are parallel ``(k, 4)`` arrays; entry ``i`` is the
    smallest Euclidean distance between any point of ``A[i]`` and any
    point of ``B[i]`` (0 where they overlap).  This is the node-pair
    lower bound of the dual-tree traversal: for a query block ``A[i]``
    and an object-group envelope ``B[i]`` it lower-bounds ``dmin_j(q)``
    for every query in the block and every member of the group.
    """
    A = as_rect_array(A)
    B = as_rect_array(B)
    dx = np.maximum(np.maximum(B[:, 0] - A[:, 2], A[:, 0] - B[:, 2]), 0.0)
    dy = np.maximum(np.maximum(B[:, 1] - A[:, 3], A[:, 1] - B[:, 3]), 0.0)
    return np.hypot(dx, dy)


def rect_rect_maxdist_pairs(A, B) -> np.ndarray:
    """Maximum distance between paired rectangles, shape ``(k,)``.

    Entry ``i`` is the largest Euclidean distance between any point of
    ``A[i]`` and any point of ``B[i]`` — the dual-tree node-pair upper
    bound, dominating ``dmax_j(q)`` for every (query, member) pair under
    the node pair.
    """
    A = as_rect_array(A)
    B = as_rect_array(B)
    dx = np.maximum(np.abs(A[:, 2] - B[:, 0]), np.abs(B[:, 2] - A[:, 0]))
    dy = np.maximum(np.abs(A[:, 3] - B[:, 1]), np.abs(B[:, 3] - A[:, 1]))
    return np.hypot(dx, dy)


def rect_rect_mindist_many(A, B) -> np.ndarray:
    """``rect_rect_mindist`` for every rect/rect pair, shape ``(a, b)``."""
    A = as_rect_array(A)
    B = as_rect_array(B)
    dx = np.maximum(
        np.maximum(B[None, :, 0] - A[:, None, 2], A[:, None, 0] - B[None, :, 2]),
        0.0,
    )
    dy = np.maximum(
        np.maximum(B[None, :, 1] - A[:, None, 3], A[:, None, 1] - B[None, :, 3]),
        0.0,
    )
    return np.hypot(dx, dy)


def rect_rect_maxdist_many(A, B) -> np.ndarray:
    """``rect_rect_maxdist`` for every rect/rect pair, shape ``(a, b)``."""
    A = as_rect_array(A)
    B = as_rect_array(B)
    dx = np.maximum(
        np.abs(A[:, None, 2] - B[None, :, 0]),
        np.abs(B[None, :, 2] - A[:, None, 0]),
    )
    dy = np.maximum(
        np.abs(A[:, None, 3] - B[None, :, 1]),
        np.abs(B[None, :, 3] - A[:, None, 1]),
    )
    return np.hypot(dx, dy)


# -- areas -------------------------------------------------------------------

def lens_area_many(d, r1, r2) -> np.ndarray:
    """Area of the intersection of two disks, elementwise.

    ``d`` is the center distance; ``r1`` / ``r2`` the radii.  Broadcasts
    like the inputs; same formula as :func:`repro.geometry.circle.lens_area`.
    """
    d = np.asarray(d, dtype=np.float64)
    r1 = np.broadcast_to(np.asarray(r1, dtype=np.float64), d.shape)
    r2 = np.broadcast_to(np.asarray(r2, dtype=np.float64), d.shape)
    rmin = np.minimum(r1, r2)
    full = np.pi * rmin * rmin
    # Contained covers centers a subnormal apart, where the
    # law-of-cosines denominator underflows to zero (see the scalar
    # lens_area).
    degenerate = 2.0 * d * rmin == 0.0
    out = np.where((d <= np.abs(r1 - r2)) | ((d < r1 + r2) & degenerate), full, 0.0)
    partial = (d < r1 + r2) & (d > np.abs(r1 - r2)) & ~degenerate
    if np.any(partial):
        dd = d[partial]
        a = r1[partial]
        b = r2[partial]
        with np.errstate(invalid="ignore"):
            alpha = np.arccos(
                np.clip((dd * dd + a * a - b * b) / (2.0 * dd * a), -1.0, 1.0)
            )
            beta = np.arccos(
                np.clip((dd * dd + b * b - a * a) / (2.0 * dd * b), -1.0, 1.0)
            )
        out[partial] = a * a * (alpha - np.sin(2.0 * alpha) / 2.0) + b * b * (
            beta - np.sin(2.0 * beta) / 2.0
        )
    return out


#: Fixed iteration counts of :func:`disk_expected_distance`: every pair
#: runs the same float sequence whatever else is in the batch, so any
#: grouping of the pairs returns the same doubles.  Ten AGM steps leave
#: ~2e-15 relative error at ``d = R(1 - 1e-12)`` (six leave 2e-9); 48
#: series terms reach 1e-17 at the series' largest ``(R/d)^2 = 4/9``.
_AGM_STEPS = 10
_SERIES_TERMS = 48
#: Term ratios of 2F1(-1/2, -1/2; 2; z): t_{n+1} / t_n = c_n z.
_SERIES_RATIOS = tuple(
    (n - 0.5) ** 2 / ((n + 2.0) * (n + 1.0)) for n in range(_SERIES_TERMS)
)


def _ellipke(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Complete elliptic integrals ``(K(m), E(m))`` (parameter ``m``,
    ``0 <= m < 1``) by the arithmetic-geometric mean.

    ``c_{n+1}`` comes from ``c_n^2 / (4 a_{n+1})`` rather than the
    difference ``(a_n - b_n) / 2``, which cancels once the means meet.
    """
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
    c2 = m.copy()
    s = 0.5 * c2
    scale = 0.5
    for _ in range(_AGM_STEPS):
        a1 = 0.5 * (a + b)
        c2 = (c2 / (4.0 * a1)) ** 2
        b = np.sqrt(a * b)
        a = a1
        scale *= 2.0
        s += scale * c2
    K = (0.5 * np.pi) / a
    return K, K * (1.0 - s)


def disk_expected_distance(d, R) -> np.ndarray:
    """``E|q - X|`` for ``X`` uniform on a disk of radius ``R`` whose
    center lies at distance ``d`` from ``q``, elementwise.

    With ``rho = d / R`` and ``K``, ``E`` the complete elliptic integrals
    of parameter ``m``:

    * ``d < R``: ``(4R / 9 pi) [(7 + m) E(m) - 4 (1 - m) K(m)]``,
      ``m = rho^2`` (``2R/3`` at the center);
    * ``d == R``: ``32 R / 9 pi`` exactly (the AGM diverges at ``m = 1``);
    * ``R < d <= 1.5 R``: ``(4d / 9 pi m) [(1 + 7m) E(m) -
      (1 - m)(1 + 3m) K(m)]``, ``m = (R/d)^2``;
    * ``d > 1.5 R``: ``d * 2F1(-1/2, -1/2; 2; (R/d)^2)`` by 48 terms of
      Horner.  Every term is positive, whereas the two elliptic terms
      above cancel like ``rho^2`` (2.8e-6 relative error at
      ``rho = 10^6``).

    Within a few ulps of 40-digit references for every ``rho`` from 0
    to 10^7.  The uniform-disk model's ``expected_distance(_many)`` and
    the grouped evaluator's disk kernel both call this, so the exact,
    pruned and approx tiers agree bit for bit.
    """
    d = np.asarray(d, dtype=np.float64)
    R = np.broadcast_to(np.asarray(R, dtype=np.float64), d.shape)
    out = np.empty(d.shape)
    inside = d < R
    if np.any(inside):
        Ri = R[inside]
        rho = d[inside] / Ri
        m = rho * rho
        K, E = _ellipke(m)
        out[inside] = (4.0 * Ri / (9.0 * np.pi)) * (
            (7.0 + m) * E - 4.0 * (1.0 - m) * K
        )
    edge = d == R
    out[edge] = (32.0 / (9.0 * np.pi)) * R[edge]
    near = (d > R) & (d <= 1.5 * R)
    if np.any(near):
        dn = d[near]
        u = R[near] / dn
        m = u * u
        K, E = _ellipke(m)
        out[near] = (4.0 * dn / (9.0 * np.pi * m)) * (
            (1.0 + 7.0 * m) * E - (1.0 - m) * (1.0 + 3.0 * m) * K
        )
    far = d > 1.5 * R
    if np.any(far):
        df = d[far]
        u = R[far] / df
        z = u * u
        acc = np.ones_like(z)
        for c in reversed(_SERIES_RATIOS):
            acc = 1.0 + (c * z) * acc
        out[far] = df * acc
    return out


def _circle_slice_antiderivative(u, r):
    """``F(u) = integral of sqrt(r^2 - t^2) dt`` from 0 to ``u`` (|u| <= r)."""
    u = np.clip(u, -r, r)
    return 0.5 * (u * np.sqrt(np.maximum(r * r - u * u, 0.0)) + r * r * np.arcsin(
        np.divide(u, r, out=np.zeros_like(u), where=r > 0.0)
    ))


def disk_halfplane_corner_area(x, y, r) -> np.ndarray:
    """Area of ``disk(0, r) ∩ {u <= x} ∩ {v <= y}``, elementwise.

    The cumulative "corner" measure: rectangle/disk intersection areas
    follow by inclusion–exclusion over the four rectangle corners.
    Derived by integrating the chord length ``clip(y + c(u), 0, 2 c(u))``
    with ``c(u) = sqrt(r^2 - u^2)`` in closed form, splitting at
    ``u = ±sqrt(r^2 - y^2)`` where the clip regime changes.
    """
    x, y, r = np.broadcast_arrays(
        np.asarray(x, dtype=np.float64),
        np.asarray(y, dtype=np.float64),
        np.asarray(r, dtype=np.float64),
    )
    x = np.clip(x, -r, r)
    yc = np.clip(y, -r, r)
    cy = np.sqrt(np.maximum(r * r - yc * yc, 0.0))

    def F(u):
        return _circle_slice_antiderivative(u, r)

    # Middle piece: u in (-cy, min(x, cy)), integrand y + c(u).
    b2 = np.clip(x, -cy, cy)
    mid = yc * (b2 + cy) + F(b2) - F(-cy)
    # Outer pieces, only where y >= 0: integrand 2 c(u).
    b1 = np.clip(x, -r, -cy)
    b3 = np.clip(x, cy, r)
    outer = 2.0 * (F(b1) - F(-r)) + 2.0 * (F(b3) - F(cy))
    return np.where(yc >= 0.0, mid + outer, mid)


def rect_circle_area_many(rects, Q, r) -> np.ndarray:
    """Area of ``rect ∩ disk(q, r)`` for every query/rect pair, ``(m, k)``.

    Exact closed form (corner decomposition); matches the scalar
    Green's-theorem sweep of :func:`repro.geometry.areas.rect_circle_area`
    to floating-point rounding.  ``r`` may be a scalar, an ``(m,)``
    per-query vector, or an ``(m, k)`` matrix.
    """
    Q = as_query_array(Q)
    R = as_rect_array(rects)
    rr = np.asarray(r, dtype=np.float64)
    if rr.ndim == 1:
        rr = rr[:, None]
    qx = Q[:, 0][:, None]
    qy = Q[:, 1][:, None]
    x0 = R[None, :, 0] - qx
    y0 = R[None, :, 1] - qy
    x1 = R[None, :, 2] - qx
    y1 = R[None, :, 3] - qy
    rr = np.broadcast_to(rr, x0.shape)
    area = (
        disk_halfplane_corner_area(x1, y1, rr)
        - disk_halfplane_corner_area(x0, y1, rr)
        - disk_halfplane_corner_area(x1, y0, rr)
        + disk_halfplane_corner_area(x0, y0, rr)
    )
    return np.maximum(area, 0.0)


# -- point in polygon --------------------------------------------------------

def points_in_polygon_many(Q, vertices) -> np.ndarray:
    """Boolean mask of queries inside a simple polygon (crossing test).

    Points exactly on an edge may land on either side, as in the scalar
    even–odd test; batch consumers needing boundary guarantees should
    combine this with a distance predicate.
    """
    Q = as_query_array(Q)
    V = np.asarray([(v[0], v[1]) for v in vertices], dtype=np.float64)
    if V.ndim != 2 or V.shape[0] < 3:
        raise ValueError("polygon needs at least 3 vertices")
    x = Q[:, 0][:, None]
    y = Q[:, 1][:, None]
    ax, ay = V[:, 0][None, :], V[:, 1][None, :]
    bx = np.roll(V[:, 0], -1)[None, :]
    by = np.roll(V[:, 1], -1)[None, :]
    straddles = (ay > y) != (by > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
    hits = straddles & (x < x_cross)
    return np.count_nonzero(hits, axis=1) % 2 == 1


# -- batched quadrature ------------------------------------------------------

def gauss_legendre_nodes(panels: int, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss–Legendre rule on ``[0, 1]``.

    ``panels`` equal subintervals, ``order`` nodes each; returns
    ``(nodes, weights)`` with ``weights.sum() == 1``.  Composite panels
    localise the damage from integrand kinks (distance cdfs switch
    regimes where the query circle crosses support features), which a
    single high-order rule would smear across the whole interval.
    """
    if panels < 1 or order < 1:
        raise ValueError("panels and order must be positive")
    return _gauss_legendre_nodes_cached(int(panels), int(order))


@functools.lru_cache(maxsize=128)
def _gauss_legendre_nodes_cached(
    panels: int, order: int
) -> Tuple[np.ndarray, np.ndarray]:
    # Same float sequence as the historical uncached body; the composite
    # rules are requested on every batched quadrature call, so the cache
    # removes a leggauss eigenproblem from every evaluation.  Read-only
    # arrays keep cache sharing safe across callers.
    x, w = gauss_legendre_rule(order)
    x = 0.5 * (x + 1.0)  # map [-1, 1] -> [0, 1]
    w = 0.5 * w
    offsets = np.arange(panels, dtype=np.float64)[:, None]
    nodes = ((offsets + x[None, :]) / panels).ravel()
    weights = np.ascontiguousarray(
        np.broadcast_to(w[None, :] / panels, (panels, order)).ravel()
    )
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def batched_tail_quadrature(
    survival: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    panels: int = 8,
    order: int = 16,
) -> np.ndarray:
    """``integral of survival(q_i, r) dr`` over per-query ``[lo_i, hi_i]``.

    ``survival`` maps an ``(m, K)`` radius matrix (row ``i`` holding the
    quadrature nodes of query ``i``) to the matching survival values
    ``1 - G_{q_i, .}(r)``; it is evaluated once on the full node grid of
    every query — the fixed-node batched quadrature behind the default
    ``expected_distance_many``.

    Returns the ``(m,)`` vector of tail integrals; with
    ``E[d] = dmin + integral`` this is the [AESZ12] ranking criterion
    for a whole query matrix at once.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    span = np.maximum(hi - lo, 0.0)
    nodes, weights = gauss_legendre_nodes(panels, order)
    R = lo[:, None] + span[:, None] * nodes[None, :]
    vals = survival(R)
    return span * (vals * weights[None, :]).sum(axis=1)
