"""Engine snapshot/restore.

* **Bit-identity** — a restored engine answers every query method
  exactly as the saved one, across all six uncertain-point models
  (the relation round-trips through the wire codec, which is exact for
  IEEE doubles, and the column store is installed verbatim).
* **Format 1** — ``tests/data/snapshot_v1.npz``, written by the
  format-1 writer, still loads: the relation, re-measured radii, pruned
  answers, durable recovery on top of it, and a fresh save in format 2.
* **Validation** — corrupted, truncated, wrong-magic, wrong-version,
  and checksum-violating snapshots all raise
  :class:`repro.errors.SnapshotError` with a diagnostic ``reason``;
  garbage never loads.
* **Atomicity** — a failed save leaves the previous snapshot at the
  target path intact.
"""

import dataclasses
import json
import math
import os
import random
import shutil

import numpy as np
import pytest

from repro import (
    DiscreteUncertainPoint,
    Engine,
    HistogramPoint,
    ModelColumns,
    QuerySpec,
    SnapshotError,
    TruncatedGaussianPoint,
    UniformDiskPoint,
    UniformPolygonPoint,
    UniformRectPoint,
    io,
    resilience,
)
from repro.constructions import (
    random_discrete_points,
    random_disk_points,
    random_queries,
)
from repro.resilience import FaultSpec, faults, snapshot

MODEL_KINDS = ("disk", "discrete", "rect", "gaussian", "polygon", "histogram")


def model_points(kind, seed=11, n=8, box=50.0):
    rng = random.Random(seed)
    if kind == "discrete":
        return random_discrete_points(n, k=4, seed=seed, box=box)
    if kind == "disk":
        return random_disk_points(n, seed=seed, box=box)
    pts = []
    for _ in range(n):
        x, y = rng.uniform(0, box), rng.uniform(0, box)
        if kind == "rect":
            pts.append(
                UniformRectPoint((x, y, x + rng.uniform(1, 4), y + rng.uniform(1, 4)))
            )
        elif kind == "gaussian":
            pts.append(TruncatedGaussianPoint((x, y), sigma=rng.uniform(0.5, 2)))
        elif kind == "polygon":
            pts.append(
                UniformPolygonPoint(
                    [(x, y), (x + 3, y), (x + 2.5, y + 2.5), (x + 0.5, y + 3)]
                )
            )
        else:
            pts.append(HistogramPoint((x, y), 1.0, [[0.3, 0.2], [0.1, 0.4]]))
    return pts


def _queries(m=10, seed=5, box=50.0):
    return np.asarray(random_queries(m, seed, (0.0, 0.0, box, box)), dtype=float)


QUERY_SPECS = (
    {"method": "expected_nn"},
    {"method": "nonzero"},
    {"method": "mc_pnn", "s": 64, "seed": 9},
    {"method": "expected_knn", "k": 3},
)


def _assert_same_result(a, b):
    if isinstance(a.answers, np.ndarray):
        np.testing.assert_array_equal(a.answers, b.answers)
    else:
        assert a.answers == b.answers
    if a.values is not None:
        np.testing.assert_array_equal(a.values, b.values)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize(
        "spec", QUERY_SPECS, ids=[s["method"] for s in QUERY_SPECS]
    )
    def test_bit_identical_answers(self, tmp_path, kind, spec):
        eng = Engine(model_points(kind))
        Q = _queries()
        base = eng.query(Q, **spec)
        path = str(tmp_path / "snap.npz")
        eng.save(path)
        restored = Engine.load(path)
        _assert_same_result(base, restored.query(Q, **spec))

    def test_mixed_relation_round_trip(self, tmp_path):
        pts = [p for kind in MODEL_KINDS for p in model_points(kind, n=3)]
        eng = Engine(pts)
        Q = _queries(8)
        base = eng.query(Q, method="expected_nn")
        path = str(tmp_path / "snap.npz")
        assert eng.save(path) == path
        restored = Engine.load(path)
        assert len(restored) == len(eng)
        _assert_same_result(base, restored.query(Q, method="expected_nn"))

    def test_threshold_round_trip_discrete(self, tmp_path):
        eng = Engine(model_points("discrete"))
        Q = _queries()
        base = eng.query(Q, method="threshold", tau=0.2)
        path = str(tmp_path / "snap.npz")
        eng.save(path)
        restored = Engine.load(path)
        _assert_same_result(base, restored.query(Q, method="threshold", tau=0.2))

    def test_empty_engine_round_trip(self, tmp_path):
        eng = Engine([])
        path = str(tmp_path / "empty.npz")
        eng.save(path)
        restored = Engine.load(path)
        assert len(restored) == 0
        res = restored.query(_queries(3), method="expected_nn")
        assert res.plan["route"] == "empty"
        assert (np.asarray(res.answers) == -1).all()

    def test_generation_survives_restore(self, tmp_path):
        eng = Engine(model_points("disk"))
        eng.insert([UniformDiskPoint((1.0, 2.0), 0.5)])
        eng.remove(0)
        path = str(tmp_path / "snap.npz")
        eng.save(path)
        restored = Engine.load(path)
        assert restored.generation == eng.generation
        Q = _queries(6)
        _assert_same_result(
            eng.query(Q, method="expected_nn"),
            restored.query(Q, method="expected_nn"),
        )

    def test_manifest_contents(self, tmp_path):
        eng = Engine(model_points("disk"))
        eng.query(_queries(4), method="expected_nn")  # build some indexes
        path = str(tmp_path / "snap.npz")
        eng.save(path)
        manifest = snapshot.read_manifest(path)
        assert manifest["magic"] == snapshot.MAGIC
        assert manifest["version"] == snapshot.VERSION
        assert manifest["n"] == len(eng)
        assert manifest["built_indexes"]  # rebuild-on-miss manifest
        assert manifest["checksum"]

    def test_restore_skips_resummarisation(self, tmp_path):
        eng = Engine(model_points("disk"))
        cols = eng.columns()
        path = str(tmp_path / "snap.npz")
        eng.save(path)
        restored = Engine.load(path)
        np.testing.assert_array_equal(restored.columns().bboxes, cols.bboxes)
        # The column store came from the snapshot payload, not a rebuild.
        assert restored.stats()["registry_builds"] == 0


class TestValidation:
    def _snap(self, tmp_path):
        path = str(tmp_path / "snap.npz")
        Engine(model_points("disk")).save(path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError) as err:
            Engine.load(str(tmp_path / "nope.npz"))
        assert err.value.reason == "io"

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(SnapshotError) as err:
            Engine.load(str(path))
        assert err.value.reason == "truncated"

    def test_npz_without_manifest(self, tmp_path):
        path = str(tmp_path / "other.npz")
        np.savez(path, data=np.arange(3))
        with pytest.raises(SnapshotError) as err:
            Engine.load(path)
        assert err.value.reason == "magic"

    def test_wrong_magic(self, tmp_path):
        path = str(tmp_path / "magic.npz")
        manifest = json.dumps({"magic": "other-format", "version": 1})
        np.savez(
            path,
            manifest=np.frombuffer(manifest.encode(), dtype=np.uint8),
        )
        with pytest.raises(SnapshotError) as err:
            Engine.load(path)
        assert err.value.reason == "magic"

    def test_future_version(self, tmp_path):
        path = str(tmp_path / "future.npz")
        manifest = json.dumps({"magic": snapshot.MAGIC, "version": 99})
        np.savez(
            path,
            manifest=np.frombuffer(manifest.encode(), dtype=np.uint8),
        )
        with pytest.raises(SnapshotError) as err:
            Engine.load(path)
        assert err.value.reason == "version"

    def test_truncated_file(self, tmp_path):
        path = self._snap(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError) as err:
            Engine.load(path)
        assert err.value.reason in ("truncated", "magic", "io")

    def test_corrupted_payload(self, tmp_path):
        path = self._snap(tmp_path)
        blob = bytearray(open(path, "rb").read())
        # Flip bytes in the middle of the archive (past the first local
        # header, so the zip still opens but a member is damaged).
        mid = len(blob) // 2
        for i in range(mid, mid + 16):
            blob[i] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(SnapshotError) as err:
            Engine.load(path)
        assert err.value.reason in ("truncated", "checksum", "schema", "magic")

    def test_checksum_violation(self, tmp_path):
        path = self._snap(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            payload = {name: np.array(data[name]) for name in data.files}
        # Tamper with one column value but keep the stored manifest (and
        # its checksum) untouched: the zip is fully valid, only the
        # payload digest disagrees.
        payload["col_centers"] = payload["col_centers"].copy()
        payload["col_centers"][0, 0] += 1.0
        np.savez(path, **payload)
        with pytest.raises(SnapshotError) as err:
            Engine.load(path)
        assert err.value.reason == "checksum"

    def test_missing_column_array(self, tmp_path):
        path = self._snap(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            payload = {name: np.array(data[name]) for name in data.files}
        del payload["col_radii"]
        np.savez(path, **payload)
        with pytest.raises(SnapshotError) as err:
            Engine.load(path)
        assert err.value.reason == "schema"

    def test_failed_save_preserves_existing_snapshot(self, tmp_path):
        path = self._snap(tmp_path)
        before = open(path, "rb").read()
        other = Engine(model_points("discrete"))
        with faults.inject(FaultSpec("snapshot.write", "crash")):
            with pytest.raises(Exception):
                other.save(path)
        assert open(path, "rb").read() == before
        Engine.load(path)  # still a valid snapshot
        faults.reset_fault_stats()


class TestDurability:
    """Satellite hardening of ``save_engine`` (PR 8): temp file in the
    target directory, fsync before rename, and guaranteed temp cleanup
    when the array encoder itself fails mid-write."""

    def test_failing_encoder_leaves_no_partial_file(self, tmp_path, monkeypatch):
        eng = Engine(model_points("disk"))
        path = str(tmp_path / "snap.npz")

        def boom(f, **payload):
            f.write(b"half a snapsho")  # bytes hit the temp file first
            raise RuntimeError("encoder died mid-stream")

        monkeypatch.setattr(snapshot.np, "savez", boom)
        with pytest.raises(RuntimeError, match="mid-stream"):
            eng.save(path)
        # Neither a torn target nor a stray temp file survives.
        assert list(tmp_path.iterdir()) == []

    def test_failing_encoder_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        eng = Engine(model_points("disk"))
        path = str(tmp_path / "snap.npz")
        eng.save(path)
        before = open(path, "rb").read()

        def boom(f, **payload):
            raise RuntimeError("encoder died")

        monkeypatch.setattr(snapshot.np, "savez", boom)
        with pytest.raises(RuntimeError):
            Engine(model_points("discrete")).save(path)
        assert open(path, "rb").read() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.npz"]
        Engine.load(path)

    def test_save_fsyncs_before_rename(self, tmp_path, monkeypatch):
        eng = Engine(model_points("disk"))
        path = str(tmp_path / "snap.npz")
        order = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            snapshot.os, "fsync", lambda fd: (order.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            snapshot.os, "replace",
            lambda a, b: (order.append("replace"), real_replace(a, b))[1],
        )
        eng.save(path)
        assert "fsync" in order and "replace" in order
        assert order.index("fsync") < order.index("replace")


# -- format 1 -----------------------------------------------------------------

#: A snapshot written by the format-1 writer (the relation as a JSON list
#: of point dicts, smallest-enclosing-circle radii):
#: ``Engine(format1_relation(FORMAT1_SEED)).save(FORMAT1_PATH)``.
FORMAT1_PATH = os.path.join(os.path.dirname(__file__), "data", "snapshot_v1.npz")
FORMAT1_SEED = 2026

#: Two discrete points on which format-1 radii prune a true answer: one
#: of A's locations lies 8e-12 relative outside its smallest enclosing
#: circle's radius, and at ``PRUNING_ROW`` ``dmin_A < dmax_B`` by 4e-12.
PRUNING_PAIR = (
    DiscreteUncertainPoint(
        [(58.13820877404199, 70.37454101336156), (58.90410328017087, 71.48851256655766),
         (59.0950422498526, 71.28938094890569), (59.08110913537973, 70.76733544616104)],
        [0.39403481169065885, 0.16715108914919427, 0.3403053962374821, 0.09850870292266471],
        name="A",
    ),
    DiscreteUncertainPoint([(58.13820877404426, 70.37454101336486)], [1.0], name="B"),
)
PRUNING_ROW = (58.08143592951698, 70.29221942369921)


def format1_relation(seed):
    """38 points: six of each model around seeded anchors in
    ``[0, 40]^2`` (discrete with k = 1..6, polygons with cocircular
    vertices), then :data:`PRUNING_PAIR`."""
    rng = random.Random(seed)
    pts = []
    for i in range(6):
        x, y = rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)
        k = i + 1
        raw = [rng.uniform(0.2, 1.0) for _ in range(k)]
        pts.append(DiscreteUncertainPoint(
            [(x + rng.uniform(-2, 2), y + rng.uniform(-2, 2)) for _ in range(k)],
            [w / sum(raw) for w in raw], name=f"discrete-{i}",
        ))
        pts.append(UniformDiskPoint((y, x), rng.uniform(0.3, 2.0), name=f"disk-{i}"))
        w, h = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        pts.append(UniformRectPoint((x + 1, y - 3, x + 1 + w, y - 3 + h), name=f"rect-{i}"))
        pts.append(TruncatedGaussianPoint(
            (x - 3, y + 1), sigma=rng.uniform(0.3, 1.2), name=f"gaussian-{i}"
        ))
        r, turn = rng.uniform(0.5, 2.5), rng.uniform(0.0, math.pi)
        pts.append(UniformPolygonPoint(
            [(x + 4 + r * math.cos(turn + 2 * math.pi * j / (i + 3)),
              y + 4 + r * math.sin(turn + 2 * math.pi * j / (i + 3))) for j in range(i + 3)],
            name=f"polygon-{i}",
        ))
        cells = [[rng.uniform(0.1, 1.0) for _ in range(2)] for _ in range(3)]
        total = sum(map(sum, cells))
        pts.append(HistogramPoint(
            (y - 4, x - 4), rng.uniform(0.3, 1.0),
            [[c / total for c in row] for row in cells], name=f"histogram-{i}",
        ))
    return pts + list(PRUNING_PAIR)


#: Every method, with the models its exact tier takes.
FORMAT1_SPECS = (
    (QuerySpec("expected_nn"), False),
    (QuerySpec("expected_knn", k=3), False),
    (QuerySpec("nonzero"), False),
    (QuerySpec("threshold", tau=0.2), True),
    (QuerySpec("mc_pnn", s=64, seed=9), False),
)


def _format1_queries():
    rows = _queries(m=30, seed=17, box=45.0)
    return np.vstack([rows, PRUNING_ROW, [PRUNING_ROW[0] + 0.3, PRUNING_ROW[1]]])


def _same_columns(a, b):
    for name, arr in a.arrays().items():
        other = getattr(b, name)
        assert (arr.dtype, arr.shape) == (other.dtype, other.shape), name
        assert arr.tobytes() == other.tobytes(), name


class TestFormat1:
    def test_manifest_reports_version_1(self):
        manifest = snapshot.read_manifest(FORMAT1_PATH)
        assert manifest["version"] == 1
        assert manifest["n"] == len(format1_relation(FORMAT1_SEED))

    def test_relation_equals_the_regenerated_points(self):
        loaded = Engine.load(FORMAT1_PATH).points
        want = format1_relation(FORMAT1_SEED)
        assert len(loaded) == len(want)
        for row, (a, b) in enumerate(zip(loaded, want)):
            assert io.point_to_dict(a) == io.point_to_dict(b), row

    def test_radii_are_remeasured_on_load(self):
        with np.load(FORMAT1_PATH) as data:
            stored = np.array(data["col_radii"])
        cols = Engine.load(FORMAT1_PATH).columns()
        # Equal to a fresh store in every column, radii included.
        _same_columns(cols, ModelColumns(format1_relation(FORMAT1_SEED)))
        assert not np.array_equal(cols.radii, stored)

    @pytest.mark.parametrize(
        "spec, discrete_only", FORMAT1_SPECS, ids=[s.method for s, _ in FORMAT1_SPECS]
    )
    def test_pruned_answers_equal_fresh_exact(self, spec, discrete_only):
        loaded = Engine.load(FORMAT1_PATH)
        fresh = format1_relation(FORMAT1_SEED)
        if discrete_only:
            loaded.remove([i for i, p in enumerate(fresh) if not p.is_discrete])
            fresh = [p for p in fresh if p.is_discrete]
        Q = _format1_queries()
        exact = Engine(fresh).query(Q, dataclasses.replace(spec, tier="exact"))
        _assert_same_result(loaded.query(Q, spec), exact)

    def test_durable_recovery_over_a_format1_snapshot(self, tmp_path):
        ddir = tmp_path / "dur"
        ddir.mkdir()
        shutil.copy(FORMAT1_PATH, ddir / Engine.SNAPSHOT_NAME)
        live = Engine.open_durable(str(ddir))
        live.insert(random_discrete_points(4, k=3, seed=41, box=40.0))
        live.remove([0, 7, 20, 38])
        live.insert(random_disk_points(3, seed=42, box=40.0))
        live.insert(format1_relation(7)[:8])  # a mixed batch: dict encoding
        live.insert(random_discrete_points(2, k=5, seed=43, box=40.0))
        Q = _format1_queries()
        specs = [spec for spec, discrete_only in FORMAT1_SPECS if not discrete_only]
        want = [live.query(Q, spec) for spec in specs]
        state = (len(live), live.generation)
        live_cols = live.columns()
        live.close()

        recovered = Engine.open_durable(str(ddir))
        try:
            assert snapshot.read_manifest(str(ddir / Engine.SNAPSHOT_NAME))["version"] == 1
            assert recovered.stats()["wal"]["replayed"] == 5
            assert (len(recovered), recovered.generation) == state
            _same_columns(recovered.columns(), live_cols)
            for spec, before in zip(specs, want):
                _assert_same_result(recovered.query(Q, spec), before)
        finally:
            recovered.close()

    def test_fresh_save_writes_version_2(self, tmp_path):
        loaded = Engine.load(FORMAT1_PATH)
        path = str(tmp_path / "v2.npz")
        loaded.save(path)
        assert snapshot.read_manifest(path)["version"] == 2 == snapshot.VERSION
        again = Engine.load(path)
        assert [io.point_to_dict(p) for p in again.points] == [
            io.point_to_dict(p) for p in loaded.points
        ]
        _same_columns(again.columns(), loaded.columns())
        Q = _format1_queries()
        for spec, discrete_only in FORMAT1_SPECS:
            if not discrete_only:
                _assert_same_result(again.query(Q, spec), loaded.query(Q, spec))
