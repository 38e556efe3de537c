"""Tag-grouped survivor evaluation (the output-sensitive evaluation path).

Dual-tree candidate generation makes pruning output-sensitive; this
module does the same for evaluation, instead of one Python ``*_many``
dispatch per surviving *object*:

* the survivor CSR is flattened into parallel ``(query_row, object)``
  **pair arrays**, stable-partitioned by ``ModelColumns.tags``
  (:meth:`~repro.uncertain.ModelColumns.tag_groups`);
* each model family present gets ONE vectorized kernel call for the
  whole pair group (chunked only by the ``tile_bytes``
  working-set budget), reading every model parameter from the
  registry-owned :class:`EvalCache` instead of Python objects;
* results come back in CSR pair order, which the segmented reducers
  of :mod:`repro.core.reducers` turn into per-query answers (min /
  top-k / Lemma 2.1 set tests).

Bit-identity contract
---------------------
Every float64 kernel here replays the corresponding model's batch-method
float sequence **operation for operation** (the models document their
row-independence: elementwise kernels plus per-row multiply-and-sum
reductions over fixed-length contiguous axes).  A (query, object) pair
therefore produces the same double whether it is evaluated through the
model's own method (the planner's exact tier, which the tests use as
the oracle) or through any grouping/chunking of the pair arrays.  Disk
pairs need no replay: the model and the evaluator call the same
closed-form kernel, :func:`repro.geometry.kernels.disk_expected_distance`.
Two consequences shape the code:

* discrete / histogram pairs are **sub-grouped by description
  complexity** (location count / cell count) so their per-row reductions
  run over ``(pairs, k)`` stacked arrays with ``.sum(axis=1)`` — NumPy's
  pairwise summation depends on the reduced axis length, so mixing
  complexities in one ragged reduction would change the floats;
* polygon (no vectorized cdf exists) and unknown models fall back to
  one batched ``expected_distance_many`` call per distinct *object* in
  the group — the model's own method, as in the exact tier.

Float32 mode
------------
``use_float32=True`` runs the quadrature kernels (rect, gaussian,
histogram) and the discrete kernel in single precision and returns a
certified per-pair error bound (float64).  The bounds are deliberately
conservative: quadrature kernels whose cdfs pass through ``arccos`` lose
up to ``O(sqrt(eps32))`` absolute accuracy where the query circle grazes
a support feature (the derivative of ``arccos`` is unbounded at ±1), so
their certificate is ``4 sqrt(eps32) (hi - lo) + 64 eps32 hi``; the
arithmetic-only discrete kernel is certified at ``64 eps32 E``.  Disk
pairs (whose closed form is cheaper in float64 than any float32
quadrature) and pairs that evaluate through the per-object fallback run
in float64 and carry a zero bound.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..config import current_execution
from ..errors import QueryError
from ..geometry import kernels
from .. import resilience as _resilience
from ..uncertain.columns import (
    TAG_DISCRETE,
    TAG_DISK,
    TAG_GAUSSIAN,
    TAG_HISTOGRAM,
    TAG_NAMES,
    TAG_POLYGON,
    TAG_RECT,
    ModelColumns,
)
from .quantification import sweep_reach_sq

__all__ = [
    "EvalCache",
    "expected_distance_pairs",
    "support_bounds_pairs",
    "gather_sweep_entries",
]

#: Quadrature layout of the base ``expected_distance_many`` (16 panels of
#: 16 Gauss–Legendre nodes) and of the gaussian cdf (8 panels of 16).
_PANELS, _ORDER = 16, 16
_GAUSS_PANELS, _GAUSS_ORDER = 8, 16
_NODES = _PANELS * _ORDER

#: Certified float32 error-bound coefficients (see module docstring).
_EPS32 = float(np.finfo(np.float32).eps)
_SQRT_EPS32 = math.sqrt(_EPS32)
_F32_SQRT_COEFF = 4.0
_F32_LIN_COEFF = 64.0

#: Peak simultaneous float64 working-set bytes per pair in each grouped
#: kernel (node grid × live temporaries); pair batches are chunked so a
#: chunk's working set stays within the ``tile_bytes`` in force.
#: Chunking never changes results — every kernel is row-independent.
_BYTES_RECT = _NODES * 8 * 18
_BYTES_GAUSS = _NODES * _GAUSS_PANELS * _GAUSS_ORDER * 8 * 8


def _chunk(total: int, bytes_per_pair: int) -> range:
    step = max(1, int(current_execution().tile_bytes) // max(int(bytes_per_pair), 1))
    return range(0, total, step)


def _chunks(total: int, bytes_per_pair: int):
    """Budget-sized pair-batch slices, each behind a resilience
    checkpoint (site ``"evaluators.chunk"``)."""
    r = _chunk(total, bytes_per_pair)
    for ci, s in enumerate(r):
        _resilience.checkpoint("evaluators.chunk", ci)
        yield slice(s, min(s + r.step, total))


class EvalCache:
    """Registry-owned precomputations behind the tag-grouped kernels.

    Built once per engine generation (keyed ``("eval_cache",)`` like the
    dual tree) and reused across queries, batches, and criteria:

    * shared Gauss–Legendre node grids (writable copies of the cached
      read-only rules);
    * per-gaussian truncation masses and per-rect areas — the scalars
      the model cdfs fold in;
    * discrete location stacks grouped by description complexity ``k``
      (``(group, k, 2)`` / ``(group, k)`` arrays plus dense object →
      (group, row) lookups), views of the column store where a group's
      locations form one run of it;
    * histogram cell-rectangle / mass stacks grouped by cell count, with
      per-object cell areas;
    * the live point list, for the polygon / unknown-model fallback.

    ``hits`` counts grouped kernel invocations served after construction
    and ``builds`` the constructions (1 per instance — the registry's
    per-generation reuse is what turns repeated batches into hits);
    ``pair_counts`` histograms evaluated pairs by model-tag name.
    """

    def __init__(self, points: Sequence, columns: ModelColumns):
        self.points = list(points)
        self.columns = columns
        self.hits = 0
        self.builds = 1
        self.pair_counts: Dict[str, int] = {}
        n = columns.n
        tags = columns.tags
        nodes, weights = kernels.gauss_legendre_nodes(_PANELS, _ORDER)
        self.nodes = nodes.copy()
        self.weights = weights.copy()
        gnodes, gweights = kernels.gauss_legendre_nodes(
            _GAUSS_PANELS, _GAUSS_ORDER
        )
        self.gnodes = gnodes.copy()
        self.gweights = gweights.copy()

        self.gauss_mass: Optional[np.ndarray] = None
        ids = np.flatnonzero(tags == TAG_GAUSSIAN)
        if ids.size:
            mass = np.full(n, np.nan)
            for i in ids:
                mass[i] = self.points[i]._mass
            self.gauss_mass = mass

        self.rect_area: Optional[np.ndarray] = None
        ids = np.flatnonzero(tags == TAG_RECT)
        if ids.size:
            area = np.full(n, np.nan)
            for i in ids:
                area[i] = self.points[i]._area
            self.rect_area = area

        # Discrete stacks, sub-grouped by location count k.  A group whose
        # objects hold one run of the store's locations (a discrete set
        # with one k) is a view of the store rather than a copy.
        self.disc_group = np.full(n, -1, dtype=np.intp)
        self.disc_row = np.full(n, -1, dtype=np.intp)
        self.disc_locs: Dict[int, np.ndarray] = {}
        self.disc_w: Dict[int, np.ndarray] = {}
        offsets = columns.loc_offsets
        ids = np.flatnonzero(tags == TAG_DISCRETE)
        counts = np.diff(offsets)[ids]
        # The distinct counts, ascending (np.unique sorts: ~30x slower here).
        for k in np.flatnonzero(np.bincount(counts)):
            members = ids[counts == k]
            k = int(k)
            g = members.shape[0]
            lo, hi = offsets[members[0]], offsets[members[-1] + 1]
            if hi - lo == g * k:
                at = slice(lo, hi)
            else:
                at, _ = kernels.csr_segment_gather(offsets, members)
            self.disc_locs[k] = columns.locations[at].reshape(g, k, 2)
            self.disc_w[k] = columns.location_weights[at].reshape(g, k)
            self.disc_group[members] = k
            self.disc_row[members] = np.arange(g, dtype=np.intp)

        # Histogram stacks, sub-grouped by (nonzero) cell count.
        self.hist_group = np.full(n, -1, dtype=np.intp)
        self.hist_row = np.full(n, -1, dtype=np.intp)
        self.hist_rects: Dict[int, np.ndarray] = {}
        self.hist_mass: Dict[int, np.ndarray] = {}
        self.hist_area: Dict[int, np.ndarray] = {}
        ids = np.flatnonzero(tags == TAG_HISTOGRAM)
        if ids.size:
            ncells = np.asarray(
                [self.points[i]._mass_arr.shape[0] for i in ids], dtype=np.intp
            )
            for c in np.unique(ncells):
                members = ids[ncells == c]
                c = int(c)
                self.hist_rects[c] = np.stack(
                    [self.points[i]._rect_arr for i in members]
                )
                self.hist_mass[c] = np.stack(
                    [self.points[i]._mass_arr for i in members]
                )
                self.hist_area[c] = np.asarray(
                    [self.points[i]._area for i in members], dtype=np.float64
                )
                self.hist_group[members] = c
                self.hist_row[members] = np.arange(
                    members.shape[0], dtype=np.intp
                )

    # -- introspection -----------------------------------------------------
    @property
    def nbytes(self) -> int:
        total = (
            self.nodes.nbytes
            + self.weights.nbytes
            + self.gnodes.nbytes
            + self.gweights.nbytes
            + self.disc_group.nbytes
            + self.disc_row.nbytes
            + self.hist_group.nbytes
            + self.hist_row.nbytes
        )
        for arr in (self.gauss_mass, self.rect_area):
            if arr is not None:
                total += arr.nbytes
        for d in (self.hist_rects, self.hist_mass, self.hist_area):
            total += sum(a.nbytes for a in d.values())
        # Discrete stacks that are views of the column store are the
        # store's bytes, which the registry counts under its own key.
        for d, store in (
            (self.disc_locs, self.columns.locations),
            (self.disc_w, self.columns.location_weights),
        ):
            total += sum(
                a.nbytes for a in d.values() if not np.may_share_memory(a, store)
            )
        return int(total)

    def note_pairs(self, tag: int, count: int) -> None:
        name = TAG_NAMES.get(int(tag), "other")
        self.pair_counts[name] = self.pair_counts.get(name, 0) + int(count)


# -- float32 helpers ---------------------------------------------------------

def _quad_bound(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Certified |E_f32 - E_f64| bound for the arccos-bearing quadrature
    kernels (rect / gaussian / histogram)."""
    span = np.maximum(hi - lo, 0.0)
    return _F32_SQRT_COEFF * _SQRT_EPS32 * span + _F32_LIN_COEFF * _EPS32 * np.abs(hi)


def _corner_area_local(x, y, r):
    """`kernels.disk_halfplane_corner_area` without the float64 cast."""
    x = np.clip(x, -r, r)
    yc = np.clip(y, -r, r)
    cy = np.sqrt(np.maximum(r * r - yc * yc, 0.0))

    def F(u):
        u = np.clip(u, -r, r)
        return 0.5 * (
            u * np.sqrt(np.maximum(r * r - u * u, 0.0))
            + r * r * np.arcsin(
                np.divide(u, r, out=np.zeros_like(u), where=r > 0.0)
            )
        )

    b2 = np.clip(x, -cy, cy)
    mid = yc * (b2 + cy) + F(b2) - F(-cy)
    b1 = np.clip(x, -r, -cy)
    b3 = np.clip(x, cy, r)
    outer = 2.0 * (F(b1) - F(-r)) + 2.0 * (F(b3) - F(cy))
    return np.where(yc >= 0.0, mid + outer, mid)


# -- per-tag expected-distance kernels ---------------------------------------
#
# Every float64 branch replays the corresponding model batch method's
# float sequence op for op (see the module docstring); float32 branches
# run the same sequence on down-cast inputs.

def _expected_disk(cache, qx, qy, sub, f32):
    # The closed form runs in float64 in both modes (it costs less than
    # a float32 quadrature would), so its float32 certificate is zero.
    centers = cache.columns.centers[sub]
    d = np.hypot(qx - centers[:, 0], qy - centers[:, 1])
    out = kernels.disk_expected_distance(d, cache.columns.radii[sub])
    return out, None


def _expected_gaussian(cache, qx, qy, sub, f32):
    centers = cache.columns.centers[sub]
    cx, cy = centers[:, 0], centers[:, 1]
    cutoff = cache.columns.radii[sub]
    sigma = cache.columns.sigmas[sub]
    mass = cache.gauss_mass[sub]
    nodes, weights = cache.nodes, cache.weights
    gnodes, gweights = cache.gnodes, cache.gweights
    bounds = None
    if f32:
        d64 = np.hypot(qx - cx, qy - cy)
        bounds = _quad_bound(np.maximum(d64 - cutoff, 0.0), d64 + cutoff)
        dt = np.float32
        qx, cx = qx.astype(dt), cx.astype(dt)
        qy, cy = qy.astype(dt), cy.astype(dt)
        cutoff, sigma, mass = (
            cutoff.astype(dt),
            sigma.astype(dt),
            mass.astype(dt),
        )
        nodes, weights = nodes.astype(dt), weights.astype(dt)
        gnodes, gweights = gnodes.astype(dt), gweights.astype(dt)
    d = np.hypot(qx - cx, qy - cy)
    lo = np.maximum(d - cutoff, 0.0)
    hi = d + cutoff
    p = sub.shape[0]
    out = np.empty(p, dtype=np.float64)
    for sl in _chunks(p, _BYTES_GAUSS):
        lo_s = lo[sl]
        span_t = np.maximum(hi[sl] - lo_s, 0.0)
        R = lo_s[:, None] + span_t[:, None] * nodes[None, :]
        d_f = np.repeat(d[sl], _NODES)
        sig = np.repeat(sigma[sl], _NODES)
        cut = np.repeat(cutoff[sl], _NODES)
        ms = np.repeat(mass[sl], _NODES)
        rr = R.reshape(-1).copy()
        rr[rr < 0.0] = 0.0
        # Full-coverage term (closed-form truncated-Rayleigh cdf), then
        # the partial-ring angular quadrature — the exact op sequence of
        # TruncatedGaussianPoint.distance_cdf_many.
        s0 = np.clip(np.clip(rr - d_f, 0.0, cut), 0.0, cut)
        total = -np.expm1(-0.5 * (s0 / sig) ** 2) / ms
        a = np.clip(np.abs(d_f - rr), 0.0, cut)
        b = np.clip(d_f + rr, 0.0, cut)
        span_g = np.maximum(b - a, 0.0)
        active = (span_g > 0.0) & (rr > 0.0)
        if np.any(active):
            da = d_f[active][:, None]
            ra = rr[active][:, None]
            S = a[active][:, None] + span_g[active][:, None] * gnodes[None, :]
            sg = sig[active][:, None]
            msk = ms[active][:, None]
            pdf = S / (sg * sg) * np.exp(-0.5 * (S / sg) ** 2) / msk
            denom = 2.0 * da * S
            cos_half = np.divide(
                da * da + S * S - ra * ra,
                denom,
                out=np.ones_like(S),
                where=denom > 0.0,
            )
            frac = np.arccos(np.clip(cos_half, -1.0, 1.0)) / np.pi
            frac = np.where(S + da <= ra, 1.0, frac)
            frac = np.where(np.abs(da - S) >= ra, 0.0, frac)
            total[active] += span_g[active] * (
                pdf * frac * gweights[None, :]
            ).sum(axis=1)
        G = np.clip(total, 0.0, 1.0)
        G[rr >= d_f + cut] = 1.0
        G[rr <= np.maximum(d_f - cut, 0.0)] = 0.0
        vals = (1.0 - G).reshape(-1, _NODES)
        tail = span_t * (vals * weights[None, :]).sum(axis=1)
        out[sl] = lo_s + tail
    return out, bounds


def _expected_rect(cache, qx, qy, sub, f32):
    b = cache.columns.bboxes[sub]
    area = cache.rect_area[sub]
    nodes, weights = cache.nodes, cache.weights
    bounds = None
    if f32:
        dxm = np.maximum(np.maximum(b[:, 0] - qx, 0.0), qx - b[:, 2])
        dym = np.maximum(np.maximum(b[:, 1] - qy, 0.0), qy - b[:, 3])
        dxM = np.maximum(np.abs(qx - b[:, 0]), np.abs(qx - b[:, 2]))
        dyM = np.maximum(np.abs(qy - b[:, 1]), np.abs(qy - b[:, 3]))
        bounds = _quad_bound(np.hypot(dxm, dym), np.hypot(dxM, dyM))
        dt = np.float32
        qx, qy = qx.astype(dt), qy.astype(dt)
        b = b.astype(dt)
        area = area.astype(dt)
        nodes, weights = nodes.astype(dt), weights.astype(dt)
    dxm = np.maximum(np.maximum(b[:, 0] - qx, 0.0), qx - b[:, 2])
    dym = np.maximum(np.maximum(b[:, 1] - qy, 0.0), qy - b[:, 3])
    lo = np.hypot(dxm, dym)
    dxM = np.maximum(np.abs(qx - b[:, 0]), np.abs(qx - b[:, 2]))
    dyM = np.maximum(np.abs(qy - b[:, 1]), np.abs(qy - b[:, 3]))
    hi = np.hypot(dxM, dyM)
    corner = _corner_area_local if f32 else kernels.disk_halfplane_corner_area
    p = sub.shape[0]
    out = np.empty(p, dtype=np.float64)
    for sl in _chunks(p, _BYTES_RECT):
        lo_s = lo[sl]
        span = np.maximum(hi[sl] - lo_s, 0.0)
        R = lo_s[:, None] + span[:, None] * nodes[None, :]
        rr = R.ravel()
        qx_f = np.repeat(qx[sl], _NODES)
        qy_f = np.repeat(qy[sl], _NODES)
        b_f = np.repeat(b[sl], _NODES, axis=0)
        x0 = b_f[:, 0] - qx_f
        y0 = b_f[:, 1] - qy_f
        x1 = b_f[:, 2] - qx_f
        y1 = b_f[:, 3] - qy_f
        area_g = (
            corner(x1, y1, rr)
            - corner(x0, y1, rr)
            - corner(x1, y0, rr)
            + corner(x0, y0, rr)
        )
        area_g = np.maximum(area_g, 0.0)
        area_f = np.repeat(area[sl], _NODES)
        G = np.where(rr > 0.0, np.clip(area_g / area_f, 0.0, 1.0), 0.0)
        vals = (1.0 - G).reshape(-1, _NODES)
        tail = span * (vals * weights[None, :]).sum(axis=1)
        out[sl] = lo_s + tail
    return out, bounds


def _expected_discrete(cache, qx, qy, sub, f32):
    p = sub.shape[0]
    out = np.empty(p, dtype=np.float64)
    bounds = np.zeros(p, dtype=np.float64) if f32 else None
    groups = cache.disc_group[sub]
    for k in np.unique(groups):
        gsel = np.flatnonzero(groups == k)
        L = cache.disc_locs[int(k)][cache.disc_row[sub[gsel]]]
        W = cache.disc_w[int(k)][cache.disc_row[sub[gsel]]]
        gqx, gqy = qx[gsel], qy[gsel]
        if f32:
            dt = np.float32
            L, W = L.astype(dt), W.astype(dt)
            gqx, gqy = gqx.astype(dt), gqy.astype(dt)
        for sl in _chunks(gsel.shape[0], int(k) * 8 * 6):
            dx = gqx[sl][:, None] - L[sl, :, 0]
            dy = gqy[sl][:, None] - L[sl, :, 1]
            D = np.sqrt(dx * dx + dy * dy)
            E = (D * W[sl]).sum(axis=1)
            out[gsel[sl]] = E
            if f32:
                bounds[gsel[sl]] = _F32_LIN_COEFF * _EPS32 * np.abs(
                    E.astype(np.float64)
                )
    return out, bounds


def _expected_histogram(cache, qx, qy, sub, f32):
    p = sub.shape[0]
    out = np.empty(p, dtype=np.float64)
    bounds = np.zeros(p, dtype=np.float64) if f32 else None
    nodes, weights = cache.nodes, cache.weights
    corner = _corner_area_local if f32 else kernels.disk_halfplane_corner_area
    groups = cache.hist_group[sub]
    for c in np.unique(groups):
        gsel = np.flatnonzero(groups == c)
        rows_in_stack = cache.hist_row[sub[gsel]]
        B = cache.hist_rects[int(c)][rows_in_stack]
        M = cache.hist_mass[int(c)][rows_in_stack]
        A = cache.hist_area[int(c)][rows_in_stack]
        gqx, gqy = qx[gsel], qy[gsel]
        # Support bounds (always float64 — shared with the f32 bound).
        dxm = np.maximum(
            np.maximum(B[:, :, 0] - gqx[:, None], 0.0), gqx[:, None] - B[:, :, 2]
        )
        dym = np.maximum(
            np.maximum(B[:, :, 1] - gqy[:, None], 0.0), gqy[:, None] - B[:, :, 3]
        )
        lo = np.hypot(dxm, dym).min(axis=1)
        dxM = np.maximum(
            np.abs(gqx[:, None] - B[:, :, 0]), np.abs(gqx[:, None] - B[:, :, 2])
        )
        dyM = np.maximum(
            np.abs(gqy[:, None] - B[:, :, 1]), np.abs(gqy[:, None] - B[:, :, 3])
        )
        hi = np.hypot(dxM, dyM).max(axis=1)
        nd, wt = nodes, weights
        if f32:
            bounds[gsel] = _quad_bound(lo, hi)
            dt = np.float32
            B, M, A = B.astype(dt), M.astype(dt), A.astype(dt)
            gqx, gqy = gqx.astype(dt), gqy.astype(dt)
            lo, hi = lo.astype(dt), hi.astype(dt)
            nd, wt = nodes.astype(dt), weights.astype(dt)
        g = gsel.shape[0]
        for sl in _chunks(g, _NODES * int(c) * 8 * 16):
            lo_s = lo[sl]
            span = np.maximum(hi[sl] - lo_s, 0.0)
            R = lo_s[:, None] + span[:, None] * nd[None, :]
            rr = R.ravel()
            qx_f = np.repeat(gqx[sl], _NODES)
            qy_f = np.repeat(gqy[sl], _NODES)
            B_f = np.repeat(B[sl], _NODES, axis=0)
            M_f = np.repeat(M[sl], _NODES, axis=0)
            A_f = np.repeat(A[sl], _NODES)
            mind = np.hypot(
                np.maximum(
                    np.maximum(B_f[:, :, 0] - qx_f[:, None], 0.0),
                    qx_f[:, None] - B_f[:, :, 2],
                ),
                np.maximum(
                    np.maximum(B_f[:, :, 1] - qy_f[:, None], 0.0),
                    qy_f[:, None] - B_f[:, :, 3],
                ),
            )
            maxd = np.hypot(
                np.maximum(
                    np.abs(qx_f[:, None] - B_f[:, :, 0]),
                    np.abs(qx_f[:, None] - B_f[:, :, 2]),
                ),
                np.maximum(
                    np.abs(qy_f[:, None] - B_f[:, :, 1]),
                    np.abs(qy_f[:, None] - B_f[:, :, 3]),
                ),
            )
            r2d = rr[:, None]
            full = maxd <= r2d
            partial = (mind <= r2d) & ~full
            total = (full * M_f).sum(axis=1)
            rowsel = np.nonzero(partial.any(axis=1))[0]
            if rowsel.size:
                bs = B_f[rowsel]
                qxs = qx_f[rowsel][:, None]
                qys = qy_f[rowsel][:, None]
                rrs = rr[rowsel][:, None]
                x0 = bs[:, :, 0] - qxs
                y0 = bs[:, :, 1] - qys
                x1 = bs[:, :, 2] - qxs
                y1 = bs[:, :, 3] - qys
                rrb = np.broadcast_to(rrs, x0.shape)
                areas = (
                    corner(x1, y1, rrb)
                    - corner(x0, y1, rrb)
                    - corner(x1, y0, rrb)
                    + corner(x0, y0, rrb)
                )
                areas = np.maximum(areas, 0.0)
                contrib = np.where(
                    partial[rowsel], areas / A_f[rowsel][:, None], 0.0
                )
                total[rowsel] += (contrib * M_f[rowsel]).sum(axis=1)
            G = np.where(rr > 0.0, np.clip(total, 0.0, 1.0), 0.0)
            vals = (1.0 - G).reshape(-1, _NODES)
            tail = span * (vals * wt[None, :]).sum(axis=1)
            out[gsel[sl]] = lo_s + tail
    return out, bounds


def _fallback_groups(sub: np.ndarray):
    """(object id, positions) groups of a pair-column array, one per
    distinct object — the per-object fallback's dispatch order."""
    order = np.argsort(sub, kind="stable")
    s_cols = sub[order]
    uniq, starts = np.unique(s_cols, return_index=True)
    ends = np.append(starts[1:], s_cols.shape[0])
    for g in range(uniq.shape[0]):
        yield int(uniq[g]), order[starts[g] : ends[g]]


def _expected_fallback(cache, Q, rows, sub):
    # Polygon (no vectorized cdf exists) and unknown models: one batched
    # call per distinct object — the model's own method with its
    # defaults, row-independent, so values match the exact tier bit for
    # bit and the pair runs in float64 with a zero f32 certificate.
    out = np.empty(sub.shape[0], dtype=np.float64)
    for i, pos in _fallback_groups(sub):
        out[pos] = cache.points[i].expected_distance_many(Q[rows[pos]])
    return out, None


def expected_distance_pairs(
    cache: EvalCache,
    Q: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    use_float32: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``E[d(q, P_i)]`` for flat (query-row, object) pairs.

    ``rows`` / ``cols`` are parallel arrays naming one pair per entry
    (any order; the planner passes CSR order).  Returns
    ``(values, bounds)``: float64 values bit-identical to the models'
    own ``expected_distance_many``, and — only with
    ``use_float32=True`` — a certified per-pair float64 error bound
    (zero on fallback pairs, which stay float64).
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    p = cols.shape[0]
    values = np.empty(p, dtype=np.float64)
    bounds = np.zeros(p, dtype=np.float64) if use_float32 else None
    if p == 0:
        return values, bounds
    cache.hits += 1
    qx = Q[rows, 0]
    qy = Q[rows, 1]
    for tag, idx in cache.columns.tag_groups(cols):
        sub = cols[idx]
        cache.note_pairs(tag, idx.size)
        if tag == TAG_DISK:
            v, b = _expected_disk(cache, qx[idx], qy[idx], sub, use_float32)
        elif tag == TAG_GAUSSIAN:
            v, b = _expected_gaussian(cache, qx[idx], qy[idx], sub, use_float32)
        elif tag == TAG_RECT:
            v, b = _expected_rect(cache, qx[idx], qy[idx], sub, use_float32)
        elif tag == TAG_DISCRETE:
            v, b = _expected_discrete(cache, qx[idx], qy[idx], sub, use_float32)
        elif tag == TAG_HISTOGRAM:
            v, b = _expected_histogram(cache, qx[idx], qy[idx], sub, use_float32)
        else:
            v, b = _expected_fallback(cache, Q, rows[idx], sub)
        values[idx] = v
        if use_float32 and b is not None:
            bounds[idx] = b
    return values, bounds


# -- support bounds ----------------------------------------------------------

def support_bounds_pairs(
    cache: EvalCache, Q: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(dmin, dmax)`` for flat (query-row, object) pairs, bit-identical
    to the models' ``dmin_many`` / ``dmax_many`` — the grouped feed of
    the nonzero evaluator."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    p = cols.shape[0]
    dmin = np.empty(p, dtype=np.float64)
    dmax = np.empty(p, dtype=np.float64)
    if p == 0:
        return dmin, dmax
    cache.hits += 1
    qx = Q[rows, 0]
    qy = Q[rows, 1]
    for tag, idx in cache.columns.tag_groups(cols):
        sub = cols[idx]
        cache.note_pairs(tag, idx.size)
        gqx, gqy = qx[idx], qy[idx]
        if tag in (TAG_DISK, TAG_GAUSSIAN):
            centers = cache.columns.centers[sub]
            radius = cache.columns.radii[sub]
            d = np.hypot(gqx - centers[:, 0], gqy - centers[:, 1])
            dmin[idx] = np.maximum(d - radius, 0.0)
            dmax[idx] = d + radius
        elif tag == TAG_RECT:
            b = cache.columns.bboxes[sub]
            dxm = np.maximum(np.maximum(b[:, 0] - gqx, 0.0), gqx - b[:, 2])
            dym = np.maximum(np.maximum(b[:, 1] - gqy, 0.0), gqy - b[:, 3])
            dmin[idx] = np.hypot(dxm, dym)
            dxM = np.maximum(np.abs(gqx - b[:, 0]), np.abs(gqx - b[:, 2]))
            dyM = np.maximum(np.abs(gqy - b[:, 1]), np.abs(gqy - b[:, 3]))
            dmax[idx] = np.hypot(dxM, dyM)
        elif tag == TAG_DISCRETE:
            groups = cache.disc_group[sub]
            for k in np.unique(groups):
                gsel = np.flatnonzero(groups == k)
                L = cache.disc_locs[int(k)][cache.disc_row[sub[gsel]]]
                dx = gqx[gsel][:, None] - L[:, :, 0]
                dy = gqy[gsel][:, None] - L[:, :, 1]
                d2 = dx * dx + dy * dy
                dmin[idx[gsel]] = np.sqrt(d2.min(axis=1))
                dmax[idx[gsel]] = np.sqrt(d2.max(axis=1))
        elif tag == TAG_HISTOGRAM:
            groups = cache.hist_group[sub]
            for c in np.unique(groups):
                gsel = np.flatnonzero(groups == c)
                B = cache.hist_rects[int(c)][cache.hist_row[sub[gsel]]]
                hqx = gqx[gsel][:, None]
                hqy = gqy[gsel][:, None]
                dxm = np.maximum(np.maximum(B[:, :, 0] - hqx, 0.0), hqx - B[:, :, 2])
                dym = np.maximum(np.maximum(B[:, :, 1] - hqy, 0.0), hqy - B[:, :, 3])
                dmin[idx[gsel]] = np.hypot(dxm, dym).min(axis=1)
                dxM = np.maximum(np.abs(hqx - B[:, :, 0]), np.abs(hqx - B[:, :, 2]))
                dyM = np.maximum(np.abs(hqy - B[:, :, 1]), np.abs(hqy - B[:, :, 3]))
                dmax[idx[gsel]] = np.hypot(dxM, dyM).max(axis=1)
        else:
            for i, pos in _fallback_groups(sub):
                sel = rows[idx[pos]]
                dmin[idx[pos]] = cache.points[i].dmin_many(Q[sel])
                dmax[idx[pos]] = cache.points[i].dmax_many(Q[sel])
    return dmin, dmax


# -- threshold sweep entries -------------------------------------------------

def gather_sweep_entries(
    cache: EvalCache,
    Q: np.ndarray,
    indptr: np.ndarray,
    cols: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat Eq. (2) sweep entries of CSR candidate sets, gathered from
    the column store's location CSR in one vectorized pass.

    Returns ``(lens, dist, weight)`` in the layout
    :func:`repro.core.quantification.sweep_quantification_csr` reads:
    ``lens[j]`` locations of candidate ``cols[j]``, then every
    location's distance to its query row and its weight, row by row and
    candidate by candidate.  Up to each row's
    :func:`~repro.core.quantification.sweep_reach_sq`, the distances are
    the scalar ``math.hypot`` of
    :func:`repro.core.quantification.entries_for_query` (``np.hypot``
    differs from it in the last ulp on some inputs); past it, where the
    sweep skips every entry (~70% of them in planner batches), they are
    ``sqrt(dx * dx + dy * dy)``, which saves the scalar map there.  All
    candidates must be discrete-tagged; the planner falls back to the
    per-object path otherwise (preserving the duck-typed / error
    semantics).
    """
    columns = cache.columns
    if cols.size and np.any(columns.tags[cols] != TAG_DISCRETE):
        raise QueryError(
            "gather_sweep_entries requires discrete-tagged candidates"
        )
    gather, lens = kernels.csr_segment_gather(columns.loc_offsets, cols)
    if cols.size:
        cache.hits += 1
        cache.note_pairs(TAG_DISCRETE, cols.shape[0])
    qrow = np.repeat(kernels.csr_rows(indptr), lens)
    dx = columns.locations[gather, 0] - Q[qrow, 0]
    dy = columns.locations[gather, 1] - Q[qrow, 1]
    weight = columns.location_weights[gather]
    # Exact distances only within each row's sweep reach; the sweep
    # skips the entries past it, whatever distance past it they hold.
    sq = dx * dx + dy * dy
    near = np.flatnonzero(sq <= sweep_reach_sq(indptr, lens, sq, weight)[qrow])
    dist = np.sqrt(sq)
    dist[near] = np.fromiter(
        map(math.hypot, dx[near].tolist(), dy[near].tolist()),
        np.float64, near.shape[0],
    )
    return lens, dist, weight
