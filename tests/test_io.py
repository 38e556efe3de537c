"""Tests for JSON serialization of uncertain relations."""

import math
import random

import numpy as np
import pytest

from repro import (
    DiscreteUncertainPoint,
    DistributionError,
    HistogramPoint,
    TruncatedGaussianPoint,
    UniformDiskPoint,
    UniformPolygonPoint,
    UniformRectPoint,
    io,
)


def _relation():
    return [
        UniformDiskPoint((1.5, -2.0), 3.25, name="disk"),
        DiscreteUncertainPoint(
            [(0, 0), (1, 2), (3, 1)], [0.2, 0.5, 0.3], name="pings"
        ),
        TruncatedGaussianPoint((5, 5), sigma=0.7, cutoff=2.5, name="gauss"),
        HistogramPoint((0, 0), 1.0, [[0.25, 0.25], [0.5, 0.0]], name="hist"),
        UniformPolygonPoint([(0, 0), (2, 0), (2, 1), (0, 1)], name="poly"),
        UniformRectPoint((4, 4, 6, 7), name="rect"),
    ]


class TestRoundTrip:
    def test_dumps_loads_identity(self):
        points = _relation()
        restored = io.loads(io.dumps(points))
        assert len(restored) == len(points)
        rng_a, rng_b = random.Random(1), random.Random(1)
        for a, b in zip(points, restored):
            assert type(a) is type(b)
            assert a.name == b.name
            # Behavioural equality: same support, same cdf, same samples.
            assert a.support_bbox() == b.support_bbox()
            q = (7.3, -1.2)
            assert math.isclose(a.dmin(q), b.dmin(q), rel_tol=1e-12)
            assert math.isclose(a.dmax(q), b.dmax(q), rel_tol=1e-12)
            r = 0.6 * a.dmax(q)
            assert math.isclose(
                a.distance_cdf(q, r), b.distance_cdf(q, r), rel_tol=1e-9
            )
            assert a.sample(rng_a) == b.sample(rng_b)

    def test_file_round_trip(self, tmp_path):
        points = _relation()
        path = tmp_path / "relation.json"
        io.save(points, str(path))
        restored = io.load(str(path))
        assert len(restored) == len(points)
        assert restored[0].disk.radius == 3.25

    def test_unknown_type_rejected(self):
        with pytest.raises(DistributionError):
            io.point_from_dict({"type": "laplace"})

    def test_unserialisable_rejected(self):
        class Custom:
            pass

        with pytest.raises(DistributionError):
            io.point_to_dict(Custom())

    def test_queries_survive_round_trip(self):
        from repro import UncertainSet

        points = _relation()
        restored = io.loads(io.dumps(points))
        q = (2.0, 2.0)
        assert (
            UncertainSet(points).nonzero_nn(q)
            == UncertainSet(restored).nonzero_nn(q)
        )


class TestMalformedEncodings:
    """Decoder hardening (PR 7): malformed JSON surfaces as
    :class:`DistributionError` naming the offending field and row —
    never as a bare ``KeyError`` / ``ValueError`` / ``TypeError``."""

    def test_invalid_json_text(self):
        with pytest.raises(DistributionError, match="not valid JSON"):
            io.loads("{not json")

    def test_top_level_not_a_list(self):
        with pytest.raises(DistributionError, match="JSON array"):
            io.loads('{"type": "disk_uniform"}')

    def test_row_not_an_object(self):
        with pytest.raises(DistributionError, match=r"row 1"):
            io.loads('[{"type": "disk_uniform", "center": [0, 0], '
                     '"radius": 1}, 42]')

    def test_unknown_type_names_row(self):
        with pytest.raises(DistributionError, match=r"'laplace'.*row 0"):
            io.loads('[{"type": "laplace"}]')

    @pytest.mark.parametrize(
        "kind,payload,field",
        [
            ("disk_uniform", {"center": [0, 0]}, "radius"),
            ("disk_uniform", {"radius": 1.0}, "center"),
            ("discrete", {"locations": [[0, 0]]}, "weights"),
            ("truncated_gaussian", {"center": [0, 0]}, "sigma"),
            ("histogram", {"origin": [0, 0], "cell": 1.0}, "weights"),
            ("polygon_uniform", {}, "vertices"),
            ("rect_uniform", {}, "rect"),
        ],
    )
    def test_missing_field_is_named(self, kind, payload, field):
        data = {"type": kind, **payload}
        with pytest.raises(DistributionError, match=field):
            io.point_from_dict(data)

    def test_missing_field_names_row_in_relation(self):
        text = ('[{"type": "disk_uniform", "center": [0, 0], "radius": 1},'
                ' {"type": "disk_uniform", "center": [5, 5]}]')
        with pytest.raises(DistributionError, match=r"radius.*row 1"):
            io.loads(text)

    @pytest.mark.parametrize(
        "data",
        [
            {"type": "disk_uniform", "center": "origin", "radius": 1.0},
            {"type": "disk_uniform", "center": [0], "radius": 1.0},
            {"type": "discrete", "locations": 7, "weights": [1.0]},
            {"type": "discrete", "locations": [[0, 0]], "weights": "x"},
            {"type": "rect_uniform", "rect": [1, 2]},
            {"type": "polygon_uniform", "vertices": [[0], [1], [2]]},
            {"type": "histogram", "origin": [0, 0], "cell": "wide",
             "weights": [[1.0]]},
        ],
    )
    def test_bad_shapes_and_values_wrapped(self, data):
        with pytest.raises(DistributionError):
            io.point_from_dict(data)

    def test_bad_shape_reports_row(self):
        with pytest.raises(DistributionError, match=r"row 0"):
            io.loads('[{"type": "rect_uniform", "rect": [1, 2]}]')


class TestPackedDiscreteBatches:
    """A packed discrete batch is checked once, with the constructor's
    checks and messages, and decoded into points on row views of one
    location array and one weight array."""

    XY = [[0, 0], [1, 2], [3, 1], [5, 5], [6, 4]]

    def _wire(self, weights, counts=(3, 2), xy=XY):
        return {
            "pack": "discrete",
            "counts": list(counts),
            "names": [f"p{i}" for i in range(len(counts))],
            "xy": io._pack_f64(np.asarray(xy, dtype=float)),
            "weights": io._pack_f64(np.asarray(weights, dtype=float)),
        }

    def _constructor_message(self, locations, weights):
        with pytest.raises(DistributionError) as err:
            DiscreteUncertainPoint(locations, weights)
        return str(err.value)

    def test_non_positive_weight(self):
        with pytest.raises(DistributionError) as err:
            io.points_from_wire(self._wire([0.2, 0.5, 0.3, 1.5, -0.5]))
        assert str(err.value) == "location probabilities must be positive"
        assert str(err.value) == self._constructor_message(self.XY[3:], [1.5, -0.5])

    def test_weights_not_summing_to_one(self):
        weights = [0.3, 0.3, 0.3, 0.5, 0.5]
        with pytest.raises(DistributionError, match="^weights sum to 0.8999") as err:
            io.points_from_wire(self._wire(weights))
        assert str(err.value) == self._constructor_message(self.XY[:3], weights[:3])

    def test_first_bad_point_raises(self):
        # Point 0 sums to 0.9, point 1 has a negative weight.
        with pytest.raises(DistributionError, match="^weights sum to"):
            io.points_from_wire(self._wire([0.3, 0.3, 0.3, 1.5, -0.5]))

    def test_counts_disagree_with_payload(self):
        weights = [0.2, 0.5, 0.3, 0.5, 0.5]
        with pytest.raises(
            DistributionError,
            match="^packed discrete encoding holds 10 values, expected 12$",
        ):
            io.points_from_wire(self._wire(weights, counts=(3, 3)))
        with pytest.raises(
            DistributionError,
            match="^packed discrete encoding holds 5 values, expected 4$",
        ):
            io.points_from_wire(self._wire(weights, counts=(2, 2), xy=self.XY[:4]))
        bad = self._wire(weights)
        bad["names"] = ["only one"]
        with pytest.raises(DistributionError, match="mismatched counts/names"):
            io.points_from_wire(bad)
        with pytest.raises(DistributionError, match="^empty discrete distribution$"):
            io.points_from_wire(self._wire(weights, counts=(3, 0, 2)))

    def test_points_are_row_views_of_the_batch(self):
        pts = io.points_from_wire(self._wire([0.2, 0.5, 0.3, 0.5, 0.5]))
        assert [p.name for p in pts] == ["p0", "p1"]
        xy = pts[0]._loc_arr.base
        assert xy is not None and pts[1]._loc_arr.base is xy
        assert pts[1].locations == [(5.0, 5.0), (6.0, 4.0)]
        assert pts[0].weights == [0.2, 0.5, 0.3]
