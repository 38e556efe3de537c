"""Serialization of uncertain relations.

Uncertain points are rows of a probabilistic database table; this module
round-trips every distribution model through plain JSON so data sets,
workloads, and experiment inputs can be stored and shared.
"""

from __future__ import annotations

import base64
import json
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DistributionError
from .uncertain.base import UncertainPoint
from .uncertain.discrete import DiscreteUncertainPoint
from .uncertain.disk_uniform import UniformDiskPoint
from .uncertain.gaussian import TruncatedGaussianPoint
from .uncertain.histogram import HistogramPoint
from .uncertain.polygon_uniform import UniformPolygonPoint
from .uncertain.rect_uniform import UniformRectPoint


def point_to_dict(point: UncertainPoint) -> Dict:
    """Encode one uncertain point as a JSON-compatible dict."""
    if isinstance(point, UniformDiskPoint):
        c = point.disk.center
        return {
            "type": "disk_uniform",
            "center": [c.x, c.y],
            "radius": point.disk.radius,
            "name": point.name,
        }
    if isinstance(point, DiscreteUncertainPoint):
        return {
            "type": "discrete",
            "locations": point._loc_arr.tolist(),
            "weights": point._w_arr.tolist(),
            "name": point.name,
        }
    if isinstance(point, TruncatedGaussianPoint):
        c = point.disk.center
        return {
            "type": "truncated_gaussian",
            "center": [c.x, c.y],
            "sigma": point.sigma,
            "cutoff": point.cutoff,
            "name": point.name,
        }
    if isinstance(point, HistogramPoint):
        return {
            "type": "histogram",
            "origin": list(point.origin),
            "cell": point.cell,
            "weights": point.grid_weights,
            "name": point.name,
        }
    if isinstance(point, UniformPolygonPoint):
        return {
            "type": "polygon_uniform",
            "vertices": [[v.x, v.y] for v in point.vertices],
            "name": point.name,
        }
    if isinstance(point, UniformRectPoint):
        return {"type": "rect_uniform", "rect": list(point.rect), "name": point.name}
    raise DistributionError(f"cannot serialise {type(point).__name__}")


def _where(row) -> str:
    return f" (row {row})" if row is not None else ""


def _field(data: Dict, key: str, kind: str, row=None):
    """Fetch a required decoder field, or raise a DistributionError that
    names the missing field and the offending row."""
    try:
        return data[key]
    except KeyError:
        raise DistributionError(
            f"{kind} encoding is missing required field {key!r}{_where(row)}"
        ) from None


def point_from_dict(data: Dict, row=None) -> UncertainPoint:
    """Decode one uncertain point from its dict encoding.

    Malformed encodings (unknown ``type``, missing keys, bad shapes or
    values) raise :class:`DistributionError` naming the offending field
    and, when ``row`` is given, the row index in the relation — they
    never escape as bare ``KeyError`` / ``ValueError`` / ``TypeError``.
    """
    if not isinstance(data, dict):
        raise DistributionError(
            f"expected a point encoding object, got "
            f"{type(data).__name__}{_where(row)}"
        )
    kind = data.get("type")
    name = data.get("name")
    try:
        if kind == "disk_uniform":
            return UniformDiskPoint(
                _field(data, "center", kind, row),
                _field(data, "radius", kind, row),
                name=name,
            )
        if kind == "discrete":
            return DiscreteUncertainPoint(
                [tuple(l) for l in _field(data, "locations", kind, row)],
                _field(data, "weights", kind, row),
                name=name,
            )
        if kind == "truncated_gaussian":
            return TruncatedGaussianPoint(
                _field(data, "center", kind, row),
                _field(data, "sigma", kind, row),
                cutoff=data.get("cutoff"),
                name=name,
            )
        if kind == "histogram":
            return HistogramPoint(
                _field(data, "origin", kind, row),
                _field(data, "cell", kind, row),
                _field(data, "weights", kind, row),
                name=name,
            )
        if kind == "polygon_uniform":
            return UniformPolygonPoint(
                [tuple(v) for v in _field(data, "vertices", kind, row)],
                name=name,
            )
        if kind == "rect_uniform":
            return UniformRectPoint(
                tuple(_field(data, "rect", kind, row)), name=name
            )
    except DistributionError as exc:
        if row is not None and "(row" not in str(exc):
            raise DistributionError(f"{exc}{_where(row)}") from exc
        raise
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise DistributionError(
            f"malformed {kind!r} encoding{_where(row)}: {exc}"
        ) from exc
    raise DistributionError(
        f"unknown uncertain point type {kind!r}{_where(row)}"
    )


def _pack_f64(arr) -> str:
    """Base64 of little-endian float64 bytes — exact, and an order of
    magnitude faster than ``repr``-based JSON float encoding."""
    return base64.b64encode(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
    ).decode("ascii")


def _unpack_f64(text: str, n: int, kind: str):
    data = base64.b64decode(text.encode("ascii"), validate=True)
    arr = np.frombuffer(data, dtype="<f8")
    if arr.size != n:
        raise DistributionError(
            f"packed {kind} encoding holds {arr.size} values, "
            f"expected {n}"
        )
    return arr


class DiscreteColumns(NamedTuple):
    """The arrays of a packed discrete batch: each point's location
    count and name, and every point's locations ``(N, 2)`` and weights
    ``(N,)``, concatenated in batch order."""

    counts: np.ndarray
    names: list
    xy: np.ndarray
    weights: np.ndarray

    @classmethod
    def concat(cls, parts: Sequence["DiscreteColumns"]) -> "DiscreteColumns":
        """One batch holding ``parts`` in order."""
        return cls(
            np.concatenate([p.counts for p in parts]),
            [name for p in parts for name in p.names],
            np.concatenate([p.xy for p in parts]),
            np.concatenate([p.weights for p in parts]),
        )

    def points(self) -> List[DiscreteUncertainPoint]:
        """Validate the batch once, with the constructor's checks, then
        build each point on row views of the two arrays."""
        counts = self.counts
        ends = np.cumsum(counts)
        starts = ends - counts
        bad = counts == 0
        row_of = np.repeat(np.arange(counts.shape[0]), counts)
        bad[row_of[self.weights <= 0.0]] = True
        # Left to right, as the constructor's sum() adds them.
        total_w = np.zeros(counts.shape[0])
        for j in range(int(counts.max(initial=0))):
            has = np.flatnonzero(counts > j)
            total_w[has] += self.weights[starts[has] + j]
        bad |= np.abs(total_w - 1.0) > 1e-9
        for i in np.flatnonzero(bad).tolist():
            # The constructor raises the point's own message.
            lo, hi = int(starts[i]), int(ends[i])
            DiscreteUncertainPoint(
                self.xy[lo:hi].tolist(), self.weights[lo:hi].tolist()
            )
        make = DiscreteUncertainPoint._from_arrays
        xy, weights = self.xy, self.weights
        return [
            make(xy[lo:hi], weights[lo:hi], name)
            for lo, hi, name in zip(starts.tolist(), ends.tolist(), self.names)
        ]


def points_to_wire(
    points: Sequence[UncertainPoint],
) -> Union[List[Dict], Dict]:
    """Encode a point batch for the write-ahead log, the wire and the
    snapshot relation.

    Homogeneous batches of the hot ingest types are packed as base64
    float64 columns — the per-float cost of JSON ``repr`` encoding is
    what would otherwise dominate a durable ``Engine.insert``.  A
    discrete batch concatenates the points' location and weight arrays,
    so encoding never builds their Python lists.  Any other batch falls
    back to the per-point dict encoding of :func:`point_to_dict`.
    Either form round-trips exactly through :func:`points_from_wire`.
    """
    pts = list(points)
    if pts and all(type(p) is DiscreteUncertainPoint for p in pts):
        return {
            "pack": "discrete",
            "counts": [p._w_arr.shape[0] for p in pts],
            "names": [p.name for p in pts],
            "xy": _pack_f64(np.concatenate([p._loc_arr for p in pts])),
            "weights": _pack_f64(np.concatenate([p._w_arr for p in pts])),
        }
    if pts and all(type(p) is UniformDiskPoint for p in pts):
        return {
            "pack": "disk_uniform",
            "names": [p.name for p in pts],
            "xyr": _pack_f64(
                [
                    (p.disk.center.x, p.disk.center.y, p.disk.radius)
                    for p in pts
                ]
            ),
        }
    return [point_to_dict(p) for p in pts]


def unpack_discrete(obj) -> Optional[DiscreteColumns]:
    """The decoded arrays of a packed discrete batch written by
    :func:`points_to_wire`, or ``None`` for any other encoding.  Checks
    that the payload holds as many values as the counts name; the
    points' own checks run in :meth:`DiscreteColumns.points`."""
    if not isinstance(obj, dict) or obj.get("pack") != "discrete":
        return None
    try:
        counts = np.asarray([int(c) for c in obj["counts"]], dtype=np.intp)
        names = list(obj["names"])
        if len(names) != counts.shape[0]:
            raise DistributionError(
                "packed discrete encoding has mismatched counts/names"
            )
        if counts.size and counts.min() < 0:
            raise DistributionError(
                "packed discrete encoding has a negative location count"
            )
        total = int(counts.sum())
        xy = _unpack_f64(obj["xy"], 2 * total, "discrete").reshape(total, 2)
        weights = _unpack_f64(obj["weights"], total, "discrete")
    except DistributionError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise DistributionError(
            f"malformed packed 'discrete' encoding: {exc}"
        ) from exc
    return DiscreteColumns(counts, names, xy, weights)


def points_from_wire(obj) -> List[UncertainPoint]:
    """Decode a batch written by :func:`points_to_wire` (a JSON list of
    :func:`point_to_dict` encodings is one too), or the
    :class:`DiscreteColumns` of packed discrete batches already
    unpacked."""
    packed = obj if isinstance(obj, DiscreteColumns) else unpack_discrete(obj)
    if packed is not None:
        return packed.points()
    if isinstance(obj, dict):
        pack = obj.get("pack")
        try:
            if pack == "disk_uniform":
                names = obj["names"]
                xyr = _unpack_f64(
                    obj["xyr"], 3 * len(names), pack
                ).reshape(len(names), 3)
                return [
                    UniformDiskPoint((row[0], row[1]), row[2], name=name)
                    for row, name in zip(xyr.tolist(), names)
                ]
        except DistributionError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise DistributionError(
                f"malformed packed {pack!r} encoding: {exc}"
            ) from exc
        raise DistributionError(
            f"unknown packed point encoding {pack!r}"
        )
    if not isinstance(obj, list):
        raise DistributionError(
            f"point batch encoding must be a list or a packed object, "
            f"got {type(obj).__name__}"
        )
    return [point_from_dict(d, row=i) for i, d in enumerate(obj)]


def dumps(points: Sequence[UncertainPoint], **json_kwargs) -> str:
    """Encode a whole uncertain relation as a JSON string."""
    return json.dumps([point_to_dict(p) for p in points], **json_kwargs)


def loads(text: str) -> List[UncertainPoint]:
    """Decode an uncertain relation from a JSON string."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DistributionError(f"relation is not valid JSON: {exc}") from exc
    if not isinstance(rows, list):
        raise DistributionError(
            f"relation encoding must be a JSON array of point objects, "
            f"got {type(rows).__name__}"
        )
    return [point_from_dict(d, row=i) for i, d in enumerate(rows)]


def save(points: Sequence[UncertainPoint], path: str) -> None:
    """Write an uncertain relation to a JSON file."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(points, indent=1))


def load(path: str) -> List[UncertainPoint]:
    """Read an uncertain relation from a JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())


def json_safe(value):
    """Recursively convert ``value`` into plain JSON-serializable types.

    NumPy scalars become native ``int`` / ``float`` / ``bool``, arrays
    become (nested) lists, tuples/sets become lists, and mapping keys
    that are NumPy integers become ``int``.  Telemetry surfaces
    (``Engine.stats()``, ``ShardedEngine.stats()``, service ``/stats``)
    run through this so ``json.dumps`` always succeeds on them.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {
            int(k) if isinstance(k, np.integer) else k: json_safe(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in value]
    return value
