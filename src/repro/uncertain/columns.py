"""Structure-of-arrays store of per-object model summaries.

Every batch engine in this library ultimately asks the same questions of
an uncertain set: where is each support (bbox), how far can each object
possibly be (enclosing disk), where does each distribution sit on
average (first moment)?  :class:`ModelColumns` extracts those answers
**once** from any ``Sequence[UncertainPoint]`` into contiguous NumPy
columns, so the query planner (:mod:`repro.core.planner`) and every
future scaling layer (sharding, caching, async) can operate on arrays
instead of iterating Python model objects.

Columns
-------
``bboxes (n, 4)``
    Support bounding boxes ``(xmin, ymin, xmax, ymax)``.
``centers (n, 2)`` / ``radii (n,)``
    An enclosing disk per object: the support of ``P_i`` is contained in
    ``disk(centers[i], radii[i])``.  Exact for disk/Gaussian models
    (their own disk).  Discrete and polygon supports are centred on
    their smallest enclosing circle, and their radius is the largest
    distance from that center to a support point (location or vertex),
    computed as the pair bounds compute distances, so every support
    point lies inside by construction.  Other models get a
    circumscribing disk of the bbox.  Radii that are not model
    parameters are inflated by ``1e-12`` relative.
``means (n, 2)`` / ``mean_reach (n,)`` / ``has_mean (n,)``
    First moment ``E[P_i]`` (exact per model) and the maximum distance
    from the mean to the support.  By convexity of ``d(q, .)`` these
    bracket the expected distance:
    ``|q - mean_i| <= E[d(q, P_i)] <= |q - mean_i| + mean_reach_i``.
``tags (n,)``
    Model-type codes (``TAG_*`` constants) for dispatch/introspection.
``sigmas (n,)``
    Gaussian scale per object (``NaN`` for non-Gaussian models) — with
    ``centers``/``radii`` this makes the truncated-Gaussian cdf kernel
    computable straight from the columns, no model-object access.
``loc_offsets (n + 1,)`` / ``locations (N, 2)`` / ``location_weights (N,)``
    CSR view of the per-object mass points: discrete locations with
    their weights, histogram cell centers with their masses, and the
    mean with weight 1 for the continuous models.

Envelope bounds
---------------
:meth:`envelope_bounds_many` returns vectorized per-pair brackets
``lb <= dmin_i(q)`` and ``dmax_i(q) <= ub`` straight from the columns
(the tighter of the bbox and enclosing-disk bound, with no Python-object
loop); :meth:`expected_bounds_many` additionally sharpens both sides
with the first-moment (Jensen) bracket.  These are the bounds behind the
planner's ``dmin <= min dmax`` pruning test.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..geometry import kernels
from ..geometry.sec import smallest_enclosing_circle
from .base import UncertainPoint
from .discrete import DiscreteUncertainPoint
from .disk_uniform import UniformDiskPoint
from .gaussian import TruncatedGaussianPoint
from .histogram import HistogramPoint
from .polygon_uniform import UniformPolygonPoint
from .rect_uniform import UniformRectPoint

__all__ = [
    "ModelColumns",
    "model_tag",
    "support_radii",
    "TAG_DISCRETE",
    "TAG_RECT",
    "TAG_DISK",
    "TAG_GAUSSIAN",
    "TAG_HISTOGRAM",
    "TAG_POLYGON",
    "TAG_OTHER",
    "TAG_NAMES",
]

TAG_DISCRETE = 0
TAG_RECT = 1
TAG_DISK = 2
TAG_GAUSSIAN = 3
TAG_HISTOGRAM = 4
TAG_POLYGON = 5
TAG_OTHER = 6

#: Relative inflation of every enclosing radius that is not a model
#: parameter (support radii of discrete and polygon objects,
#: circumscribed bbox disks).  Support points lie on or inside those
#: circles, and a bound ``d(q, center) - r`` rounds a few ulps away
#: from its true value; a pruning cutoff of exactly 0 (a certain point
#: at ``q``) has no relative slack to absorb that, and would drop an
#: object whose support holds ``q``.  The guard covers rounding only: a
#: Welzl circle's own radius may leave a support point up to 1e-10
#: relative outside (its inside test's tolerance), which is why the
#: support radii are measured, not taken from the circle.
_RADIUS_GUARD = 1.0 + 1e-12

#: Pairs per block of :meth:`ModelColumns.member_pair_bounds`: its
#: two dozen float temporaries stay cache-resident at this size, which
#: measured ~1.5x faster per pair than one pass over 4e4-1.2e5 pairs
#: (2-CPU Xeon container, NumPy 2.4).
_PAIR_BLOCK = 8192

TAG_NAMES = {
    TAG_DISCRETE: "discrete",
    TAG_RECT: "rect",
    TAG_DISK: "disk",
    TAG_GAUSSIAN: "gaussian",
    TAG_HISTOGRAM: "histogram",
    TAG_POLYGON: "polygon",
    TAG_OTHER: "other",
}


def _attach_segment(name: str):
    """Attach to an existing shared-memory segment without re-tracking it.

    3.13+ exposes ``track=False`` for exactly this.  On older versions
    attaching re-registers the segment, but multiprocessing children
    share the *parent's* resource tracker (the tracker cache is a set,
    so the duplicate register is a no-op) and the creator's ``unlink``
    performs the single unregister — so the attach is simply left
    tracked.  Explicitly unregistering here would strip the creator's
    own registration out of the shared tracker.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _polygon_centroid(vertices: np.ndarray) -> Tuple[float, float]:
    """Area centroid of a simple polygon given as an ``(k, 2)`` array."""
    x, y = vertices[:, 0], vertices[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area6 = 3.0 * cross.sum()
    if area6 == 0.0:  # degenerate; fall back to the vertex average
        return float(x.mean()), float(y.mean())
    return (
        float(((x + xn) * cross).sum() / area6),
        float(((y + yn) * cross).sum() / area6),
    )


def _support_radius(support: np.ndarray, cx: float, cy: float) -> float:
    """Largest distance from ``(cx, cy)`` to a row of ``support``
    ``(k, 2)``, times the guard, in :meth:`ModelColumns.member_pair_bounds`'
    ``sqrt(dx*dx + dy*dy)`` form."""
    dx = support[:, 0] - cx
    dy = support[:, 1] - cy
    return float(np.sqrt(dx * dx + dy * dy).max()) * _RADIUS_GUARD


def _discrete_radii(
    centers: np.ndarray, offsets: np.ndarray, locations: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """:func:`_support_radius` of each of ``rows`` over its CSR
    locations, as one segmented max."""
    if rows.shape[0] == centers.shape[0]:  # every row: no gather
        lens = np.diff(offsets)
    else:
        gather, lens = kernels.csr_segment_gather(offsets, rows)
        locations = locations[gather]
    dx = locations[:, 0] - np.repeat(centers[rows, 0], lens)
    dy = locations[:, 1] - np.repeat(centers[rows, 1], lens)
    dx *= dx
    dy *= dy
    dx += dy
    starts = np.cumsum(lens) - lens
    d = np.sqrt(dx, out=dx)
    return np.maximum.reduceat(d, starts) * _RADIUS_GUARD


def support_radii(
    columns: "ModelColumns", points: Sequence[UncertainPoint]
) -> np.ndarray:
    """``columns.radii`` with each discrete and polygon row re-measured
    from its stored center to its support points, as a fresh store
    measures them.  Applied to column stores written before the radii
    were measured (snapshot format 1), whose smallest-enclosing-circle
    radii can leave a support point outside."""
    radii = columns.radii.copy()
    rows = np.flatnonzero(columns.tags == TAG_DISCRETE)
    if rows.size:
        radii[rows] = _discrete_radii(
            columns.centers, columns.loc_offsets, columns.locations, rows
        )
    for i in np.flatnonzero(columns.tags == TAG_POLYGON).tolist():
        cx, cy = columns.centers[i].tolist()
        radii[i] = _support_radius(_vertices(points[i]), cx, cy)
    return radii


def _vertices(p: UniformPolygonPoint) -> np.ndarray:
    return np.asarray([(v.x, v.y) for v in p.vertices], dtype=np.float64)


def model_tag(p: UncertainPoint) -> int:
    """The ``TAG_*`` code of one model, without computing its summary
    (cheap isinstance dispatch — used by :meth:`repro.Engine.stats` for
    the model-type histogram before any columns are built)."""
    if isinstance(p, UniformDiskPoint):
        return TAG_DISK
    if isinstance(p, TruncatedGaussianPoint):
        return TAG_GAUSSIAN
    if isinstance(p, UniformRectPoint):
        return TAG_RECT
    if isinstance(p, DiscreteUncertainPoint):
        return TAG_DISCRETE
    if isinstance(p, HistogramPoint):
        return TAG_HISTOGRAM
    if isinstance(p, UniformPolygonPoint):
        return TAG_POLYGON
    return TAG_OTHER


def _summarise(p: UncertainPoint):
    """``(tag, bbox, center, radius, mean, has_mean, mass_points,
    masses)``."""
    bbox = p.support_bbox()
    bx = (0.5 * (bbox[0] + bbox[2]), 0.5 * (bbox[1] + bbox[3]))
    half_diag = 0.5 * float(np.hypot(bbox[2] - bbox[0], bbox[3] - bbox[1]))
    half_diag *= _RADIUS_GUARD
    tag = model_tag(p)
    if tag == TAG_DISK:
        c = (p.disk.center.x, p.disk.center.y)
        return tag, bbox, c, p.disk.radius, c, True, [c], [1.0]
    if tag == TAG_GAUSSIAN:
        # radius == p.cutoff, so (centers, radii, sigmas) reconstruct the
        # truncated-Gaussian law exactly.
        c = (p.disk.center.x, p.disk.center.y)
        return tag, bbox, c, p.cutoff, c, True, [c], [1.0]
    if tag == TAG_RECT:
        return tag, bbox, bx, half_diag, bx, True, [bx], [1.0]
    if tag == TAG_DISCRETE:
        # The radius is measured over the whole call's locations at
        # once, in _column_arrays.
        sec = p.enclosing
        w, loc = p._w_arr, p._loc_arr
        mean = (float(w @ loc[:, 0]), float(w @ loc[:, 1]))
        return (
            tag,
            bbox,
            (sec.center.x, sec.center.y),
            np.nan,
            mean,
            True,
            p._location_list(),
            p._weight_list(),
        )
    if tag == TAG_HISTOGRAM:
        rects = np.asarray(p.rects, dtype=np.float64)
        masses = np.asarray(p.masses, dtype=np.float64)
        cell_centers = 0.5 * (rects[:, :2] + rects[:, 2:])
        mean = (
            float(masses @ cell_centers[:, 0]),
            float(masses @ cell_centers[:, 1]),
        )
        return (
            tag,
            bbox,
            bx,
            half_diag,
            mean,
            True,
            cell_centers.tolist(),
            p.masses,
        )
    if tag == TAG_POLYGON:
        verts = _vertices(p)
        sec = smallest_enclosing_circle([tuple(v) for v in verts])
        mean = _polygon_centroid(verts)
        return (
            tag,
            bbox,
            (sec.center.x, sec.center.y),
            _support_radius(verts, sec.center.x, sec.center.y),
            mean,
            True,
            [mean],
            [1.0],
        )
    # Unknown model: the bbox circumscribing disk is always valid; the
    # first moment is unknown, so the Jensen bracket is disabled.
    return tag, bbox, bx, half_diag, bx, False, [bx], [1.0]


def _column_arrays(points: Sequence[UncertainPoint]) -> dict:
    """Summarise ``points`` into the column arrays (one :func:`_summarise`
    pass, then the discrete radii as one segmented max).  Shared by
    :class:`ModelColumns` construction and the in-place
    :meth:`ModelColumns.extend` append path, so dynamic inserts never
    re-summarise the objects already stored."""
    # The per-object lists are freed when _summary_arrays returns, before
    # the radius pass allocates its temporaries.
    arrays = _summary_arrays(points)
    rows = np.flatnonzero(arrays["tags"] == TAG_DISCRETE)
    if rows.size:
        arrays["radii"][rows] = _discrete_radii(
            arrays["centers"], arrays["loc_offsets"], arrays["locations"],
            rows,
        )
    return arrays


def _summary_arrays(points: Sequence[UncertainPoint]) -> dict:
    bboxes: List[Tuple[float, float, float, float]] = []
    centers: List[Tuple[float, float]] = []
    radii: List[float] = []
    means: List[Tuple[float, float]] = []
    has_mean: List[bool] = []
    tags: List[int] = []
    reach: List[float] = []
    offsets = [0]
    locs: List[Tuple[float, float]] = []
    loc_w: List[float] = []
    sigmas: List[float] = []
    for p in points:
        tag, bbox, c, r, mean, hm, mass_points, masses = _summarise(p)
        bboxes.append(tuple(map(float, bbox)))
        centers.append((float(c[0]), float(c[1])))
        radii.append(float(r))
        means.append((float(mean[0]), float(mean[1])))
        has_mean.append(bool(hm))
        tags.append(tag)
        sigmas.append(float(p.sigma) if tag == TAG_GAUSSIAN else np.nan)
        reach.append(float(p.dmax(mean)) if hm else np.inf)
        locs.extend((float(x), float(y)) for x, y in mass_points)
        loc_w.extend(float(w) for w in masses)
        offsets.append(len(locs))
    return {
        "bboxes": np.asarray(bboxes, dtype=np.float64).reshape(-1, 4),
        "centers": np.asarray(centers, dtype=np.float64).reshape(-1, 2),
        "radii": np.asarray(radii, dtype=np.float64),
        "means": np.asarray(means, dtype=np.float64).reshape(-1, 2),
        "has_mean": np.asarray(has_mean, dtype=bool),
        "mean_reach": np.asarray(reach, dtype=np.float64),
        "tags": np.asarray(tags, dtype=np.int8),
        "sigmas": np.asarray(sigmas, dtype=np.float64),
        "loc_offsets": np.asarray(offsets, dtype=np.intp),
        "locations": np.asarray(locs, dtype=np.float64).reshape(-1, 2),
        "location_weights": np.asarray(loc_w, dtype=np.float64),
    }


#: The per-object column attributes (everything except the CSR triple,
#: which needs offset arithmetic on extend/shrink).
_ROW_COLUMNS = (
    "bboxes",
    "centers",
    "radii",
    "means",
    "has_mean",
    "mean_reach",
    "tags",
    "sigmas",
)


class ModelColumns:
    """Precomputed SoA columns over a fixed sequence of uncertain points.

    The store is **dynamic**: :meth:`extend` appends freshly summarised
    columns for new points in place (the points already stored are never
    re-summarised) and :meth:`shrink` drops rows by index.  The
    :class:`repro.Engine` session API uses exactly these two hooks for
    its incremental-vs-rebuild update policy.
    """

    def __init__(self, points: Sequence[UncertainPoint]):
        points = list(points)
        if not points:
            raise ValueError("ModelColumns requires at least one point")
        self.n = len(points)
        for name, arr in _column_arrays(points).items():
            setattr(self, name, arr)

    @classmethod
    def from_points(cls, points: Sequence[UncertainPoint]) -> "ModelColumns":
        return cls(points)

    # -- raw-array (snapshot) interface ---------------------------------------
    #: Every array the store owns, in a fixed order (snapshot schema).
    ARRAY_FIELDS = _ROW_COLUMNS + (
        "loc_offsets",
        "locations",
        "location_weights",
    )

    def arrays(self) -> dict:
        """The store's arrays keyed by field name (live views, not
        copies) — the payload :mod:`repro.resilience.snapshot` writes."""
        return {name: getattr(self, name) for name in self.ARRAY_FIELDS}

    @classmethod
    def from_arrays(cls, arrays: dict) -> "ModelColumns":
        """Rebuild a store directly from its column arrays (the snapshot
        restore path — no re-summarisation of points).

        Validates cross-array consistency (matching row counts, a
        monotone CSR offset vector that covers the location pool) and
        raises ``ValueError`` on any mismatch.
        """
        missing = [f for f in cls.ARRAY_FIELDS if f not in arrays]
        if missing:
            raise ValueError(f"missing column arrays: {missing}")
        rows = {int(np.asarray(arrays[f]).shape[0]) for f in _ROW_COLUMNS}
        if len(rows) != 1:
            raise ValueError(f"inconsistent column row counts: {sorted(rows)}")
        n = rows.pop()
        if n < 1:
            raise ValueError("ModelColumns requires at least one point")
        offsets = np.asarray(arrays["loc_offsets"])
        locations = np.asarray(arrays["locations"])
        weights = np.asarray(arrays["location_weights"])
        if offsets.ndim != 1 or offsets.shape[0] != n + 1:
            raise ValueError(
                f"loc_offsets must have shape ({n + 1},), got {offsets.shape}"
            )
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ValueError("loc_offsets must be monotone and start at 0")
        if int(offsets[-1]) != locations.shape[0] or (
            locations.shape[0] != weights.shape[0]
        ):
            raise ValueError(
                "location pool size disagrees with loc_offsets/weights"
            )
        self = cls.__new__(cls)
        self.n = n
        for name in cls.ARRAY_FIELDS:
            setattr(self, name, np.asarray(arrays[name]))
        return self

    def __len__(self) -> int:
        return self.n

    def row_slice(self, lo: int, hi: int) -> "ModelColumns":
        """A new store over the contiguous row range ``[lo, hi)``.

        Row columns are sliced views where possible; the CSR triple is
        sliced and rebased so the slice's ``loc_offsets`` start at 0.
        This is the shard-partitioning primitive of
        :mod:`repro.cluster`: contiguous ascending ranges keep global
        indices reconstructible as ``local + lo``.
        """
        lo, hi = int(lo), int(hi)
        if not 0 <= lo < hi <= self.n:
            raise ValueError(
                f"row_slice range [{lo}, {hi}) invalid for n={self.n}")
        start = int(self.loc_offsets[lo])
        stop = int(self.loc_offsets[hi])
        arrays = {name: getattr(self, name)[lo:hi] for name in _ROW_COLUMNS}
        arrays["loc_offsets"] = (
            self.loc_offsets[lo:hi + 1] - start
        ).astype(np.intp)
        arrays["locations"] = self.locations[start:stop]
        arrays["location_weights"] = self.location_weights[start:stop]
        return ModelColumns.from_arrays(arrays)

    # -- shared-memory transport ----------------------------------------------
    def to_shared_memory(self, name: str = None):
        """Copy every column into one shared-memory segment.

        Returns ``(shm, layout)``: the created
        :class:`multiprocessing.shared_memory.SharedMemory` block and a
        picklable layout — ``[(field, dtype_str, shape, offset), ...]``
        in :data:`ARRAY_FIELDS` order, offsets 64-byte aligned — that
        :meth:`from_shared_memory` uses to attach zero-copy views from
        another process.  The caller owns the segment (close + unlink).
        """
        from multiprocessing import shared_memory

        layout = []
        offset = 0
        sources = {}
        for field in self.ARRAY_FIELDS:
            arr = np.ascontiguousarray(getattr(self, field))
            offset = (offset + 63) & ~63
            layout.append((field, arr.dtype.str, arr.shape, offset))
            sources[field] = arr
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(
            create=True, size=max(offset, 1), name=name
        )
        for field, dtype, shape, off in layout:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off
            )
            view[...] = sources[field]
        return shm, layout

    @classmethod
    def from_shared_memory(cls, name: str, layout):
        """Attach to a segment written by :meth:`to_shared_memory`.

        Returns ``(columns, shm)`` where the columns are zero-copy views
        into the segment; the caller must keep ``shm`` alive as long as
        the columns are used, and ``close()`` it afterwards (never
        ``unlink()`` — the creator owns the segment's lifetime).
        Raises ``FileNotFoundError`` when the segment no longer exists
        (the cluster supervisor's cue to fall back to snapshot restore).
        """
        shm = _attach_segment(name)
        try:
            arrays = {
                field: np.ndarray(
                    tuple(shape), dtype=np.dtype(dtype),
                    buffer=shm.buf, offset=off,
                )
                for field, dtype, shape, off in layout
            }
            return cls.from_arrays(arrays), shm
        except BaseException:
            shm.close()
            raise

    # -- dynamic updates ------------------------------------------------------
    def extend(self, points: Sequence[UncertainPoint]) -> "ModelColumns":
        """Append columns for ``points`` in place (incremental insert:
        only the new objects are summarised).  Returns ``self``."""
        points = list(points)
        if not points:
            return self
        new = _column_arrays(points)
        for name in _ROW_COLUMNS:
            setattr(
                self, name, np.concatenate([getattr(self, name), new[name]])
            )
        base = self.loc_offsets[-1]
        self.loc_offsets = np.concatenate(
            [self.loc_offsets, base + new["loc_offsets"][1:]]
        )
        self.locations = np.concatenate([self.locations, new["locations"]])
        self.location_weights = np.concatenate(
            [self.location_weights, new["location_weights"]]
        )
        self.n += len(points)
        return self

    def shrink(self, keep) -> "ModelColumns":
        """Keep only the rows named by the index array ``keep`` (in the
        given order), dropping everything else in place (incremental
        remove: no object is re-summarised).  Returns ``self``."""
        keep = np.asarray(keep, dtype=np.intp)
        if keep.size and (keep.min() < 0 or keep.max() >= self.n):
            raise ValueError("keep indices out of range")
        gather, lens = kernels.csr_segment_gather(self.loc_offsets, keep)
        # np.take gathers the same bytes as fancy indexing, several
        # times faster on these row gathers.
        self.locations = np.take(self.locations, gather, axis=0)
        self.location_weights = np.take(self.location_weights, gather, axis=0)
        self.loc_offsets = np.concatenate(
            ([0], np.cumsum(lens))
        ).astype(np.intp)
        for name in _ROW_COLUMNS:
            setattr(self, name, np.take(getattr(self, name), keep, axis=0))
        self.n = int(keep.size)
        return self

    # -- introspection --------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the stored column arrays."""
        total = self.loc_offsets.nbytes
        for name in _ROW_COLUMNS:
            total += getattr(self, name).nbytes
        return int(
            total + self.locations.nbytes + self.location_weights.nbytes
        )

    def tag_histogram(self) -> dict:
        """``{model-type name: count}`` over the stored objects."""
        counts = np.bincount(self.tags, minlength=len(TAG_NAMES))
        return {
            TAG_NAMES[t]: int(c) for t, c in enumerate(counts) if c
        }

    def tag_groups(self, cols: np.ndarray) -> List[Tuple[int, np.ndarray]]:
        """Stable partition of a pair-column array by model tag.

        ``cols`` names one object per (query, object) pair; the return
        value is ``[(tag, idx), ...]`` in ascending tag order, where
        ``idx`` indexes into ``cols`` and preserves the original pair
        order within each tag (``argsort(kind="stable")``).  This is the
        partition step of the tag-grouped survivor evaluator: one
        vectorized kernel call per group, results scattered back through
        ``idx``.
        """
        cols = np.asarray(cols, dtype=np.intp)
        if cols.size == 0:
            return []
        t = self.tags[cols]
        order = np.argsort(t, kind="stable")
        sorted_t = t[order]
        cuts = np.flatnonzero(np.diff(sorted_t)) + 1
        return [
            (int(t[g[0]]), g) for g in np.split(order, cuts)
        ]

    # -- vectorized envelope bounds -----------------------------------------
    def center_distances(self, qs) -> np.ndarray:
        """``|q - centers[i]|`` for every query/object pair, ``(m, n)``."""
        return kernels.pairwise_distances(qs, self.centers)

    def envelope_bounds_many(self, qs) -> Tuple[np.ndarray, np.ndarray]:
        """Brackets ``(lb, ub)`` with ``lb <= dmin_i(q)`` and
        ``dmax_i(q) <= ub``, each of shape ``(m, n)``.

        Elementwise tighter of the bbox bound and the enclosing-disk
        bound; exact (equal to ``dmin``/``dmax``) for disk, Gaussian and
        rectangle models.  The dense reference of
        :meth:`member_pair_bounds`.
        """
        Q = kernels.as_query_array(qs)
        d = self.center_distances(Q)
        lb = np.maximum(
            kernels.rect_mindist_many(Q, self.bboxes),
            np.maximum(d - self.radii[None, :], 0.0),
        )
        ub = np.minimum(
            kernels.rect_maxdist_many(Q, self.bboxes),
            d + self.radii[None, :],
        )
        return lb, ub

    def member_pair_bounds(
        self, qx: np.ndarray, qy: np.ndarray, cols: np.ndarray, criterion: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`envelope_bounds_many` / :meth:`expected_bounds_many`
        in flat pair form, **bit-identical** to the matrix methods.

        ``qx`` / ``qy`` / ``cols`` name one (query, object) pair per
        entry, so ragged candidate lists (dual-tree leaf refinement, the
        quantized-envelope builder's per-cell lists) need no dense
        ``(m, n)`` matrix.  Every operation replays the matrix path's
        exact float sequence (``sqrt(dx*dx + dy*dy)`` center/mean
        distances), so the dual-tree leaf refinement reproduces the
        matrix bounds — and therefore the flat bound pass's survivor
        sets — bit for bit.
        Long inputs run in cache-sized blocks of :data:`_PAIR_BLOCK`
        pairs; every operation is elementwise, so the floats do not
        depend on the blocking.
        """
        if criterion not in ("support", "expected"):
            raise ValueError(f"unknown pruning criterion {criterion!r}")
        size = cols.shape[0]
        if size <= _PAIR_BLOCK:
            return self._member_pair_bounds(qx, qy, cols, criterion)
        lb = np.empty(size)
        ub = np.empty(size)
        for lo in range(0, size, _PAIR_BLOCK):
            hi = lo + _PAIR_BLOCK
            lb[lo:hi], ub[lo:hi] = self._member_pair_bounds(
                qx[lo:hi], qy[lo:hi], cols[lo:hi], criterion
            )
        return lb, ub

    def _member_pair_bounds(self, qx, qy, cols, criterion):
        b = self.bboxes[cols]
        dxm = np.maximum(np.maximum(b[:, 0] - qx, 0.0), qx - b[:, 2])
        dym = np.maximum(np.maximum(b[:, 1] - qy, 0.0), qy - b[:, 3])
        dxM = np.maximum(np.abs(qx - b[:, 0]), np.abs(qx - b[:, 2]))
        dyM = np.maximum(np.abs(qy - b[:, 1]), np.abs(qy - b[:, 3]))
        dx = qx - self.centers[cols, 0]
        dy = qy - self.centers[cols, 1]
        d = np.sqrt(dx * dx + dy * dy)
        r = self.radii[cols]
        lb = np.maximum(np.hypot(dxm, dym), np.maximum(d - r, 0.0))
        ub = np.minimum(np.hypot(dxM, dyM), d + r)
        if criterion == "expected":
            hm = self.has_mean[cols]
            dmx = qx - self.means[cols, 0]
            dmy = qy - self.means[cols, 1]
            dm = np.sqrt(dmx * dmx + dmy * dmy)
            lb = np.maximum(lb, np.where(hm, dm, 0.0))
            reach = self.mean_reach[cols]
            with np.errstate(invalid="ignore"):
                ub = np.minimum(ub, np.where(hm, dm + reach, np.inf))
        return lb, ub

    def expected_bounds_many(self, qs) -> Tuple[np.ndarray, np.ndarray]:
        """Brackets ``(lb, ub)`` on ``E[d(q, P_i)]``, each ``(m, n)``.

        Starts from the support bracket ``dmin <= E <= dmax`` and
        sharpens both sides with the first-moment (Jensen) bracket
        ``|q - mean| <= E <= |q - mean| + mean_reach`` where the mean is
        known.
        """
        Q = kernels.as_query_array(qs)
        lb, ub = self.envelope_bounds_many(Q)
        hm = self.has_mean[None, :]
        dm = kernels.pairwise_distances(Q, self.means)
        lb = np.maximum(lb, np.where(hm, dm, 0.0))
        with np.errstate(invalid="ignore"):
            ub = np.minimum(
                ub, np.where(hm, dm + self.mean_reach[None, :], np.inf)
            )
        return lb, ub
