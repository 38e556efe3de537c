"""The write-ahead log and durable engine sessions.

In-process coverage of :mod:`repro.resilience.wal` and
``Engine.open_durable`` (the subprocess kill-9 harness lives in
``test_wal_chaos.py``).  Pins:

* frame round-trips: every appended record scans back with its op,
  generation, payload, and byte offset;
* **torn-tail truncation**: a log cut at *every* byte boundary inside
  its final frame reopens cleanly with exactly the acknowledged prefix
  — and the torn bytes are counted, not silently eaten;
* **interior corruption** is not a torn tail: a flipped byte before the
  last record raises :class:`repro.errors.WalCorruptionError` with the
  damaged frame's offset;
* bad header magic / version raise :class:`repro.errors.WalError` with
  the documented reasons;
* durable recovery is **bit-identical**: columns, generation, and
  query answers across methods match the pre-crash engine exactly —
  including, differentially, for hypothesis-generated logs of inserts,
  removes and replaces that recovery folds to their net effect;
* compaction (explicit and threshold-triggered) rotates the log to one
  marker and stays recoverable, including when a crash interrupts the
  rotation between snapshot publish and log swap;
* fsync policies: ``always`` syncs per append, ``off`` never syncs on
  append, the interval policy syncs once the window elapses.
"""

import json
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import Engine, QuerySpec, durability
from repro.config import DURABILITY
from repro.constructions import (
    random_discrete_points,
    random_disk_points,
    random_queries,
)
from repro.errors import QueryError, WalCorruptionError, WalError
from repro.resilience import faults
from repro.resilience.wal import (
    MAGIC,
    VERSION,
    WalRecord,
    WriteAheadLog,
    scan,
)

BBOX = (0, 0, 100, 100)


@pytest.fixture()
def wal_path(tmp_path):
    return str(tmp_path / "wal.log")


def _specs():
    return [
        QuerySpec(method="expected_nn"),
        QuerySpec(method="nonzero"),
        QuerySpec(method="threshold", tau=0.1),
        QuerySpec(method="mc_pnn", s=32, seed=7),
    ]


def _fingerprint(engine, Q):
    out = []
    for spec in _specs():
        result = engine.query(Q, spec)
        answers = result.answers
        if isinstance(answers, np.ndarray):
            out.append(answers.tolist())
        else:
            out.append(answers)
    return out


# -- framing ------------------------------------------------------------------


def test_append_scan_round_trip(wal_path):
    wal = WriteAheadLog.open(wal_path, base_generation=3, base_n=10)
    off1 = wal.append("insert", {"points": [1, 2]}, generation=4)
    off2 = wal.append("remove", {"ids": [0]}, generation=5)
    wal.close()

    records, valid_end, torn = scan(wal_path)
    assert torn == 0
    assert [r.op for r in records] == ["snapshot-marker", "insert", "remove"]
    assert [r.gen for r in records] == [3, 4, 5]
    assert records[0].payload == {"n": 10}
    assert records[1].payload == {"points": [1, 2]}
    assert records[1].offset == off1 and records[2].offset == off2
    assert valid_end == os.path.getsize(wal_path)


def test_reopen_resumes_at_end(wal_path):
    wal = WriteAheadLog.open(wal_path, base_generation=0)
    wal.append("insert", {"points": []}, generation=1)
    wal.close()

    wal2 = WriteAheadLog.open(wal_path, base_generation=0)
    assert wal2.base_generation == 0
    assert [r.op for r in wal2.records] == ["snapshot-marker", "insert"]
    wal2.append("remove", {"ids": [1]}, generation=2)
    wal2.close()
    records, _, _ = scan(wal_path)
    assert [r.gen for r in records] == [0, 1, 2]


def test_append_validates_op_and_closed(wal_path):
    wal = WriteAheadLog.open(wal_path, base_generation=0)
    with pytest.raises(WalError):
        wal.append("upsert", {}, generation=1)
    wal.close()
    wal.close()  # idempotent
    with pytest.raises(WalError) as err:
        wal.append("insert", {"points": []}, generation=1)
    assert err.value.reason == "closed"


# -- torn tails, byte by byte -------------------------------------------------


def test_torn_tail_truncated_at_every_byte(wal_path, tmp_path):
    wal = WriteAheadLog.open(wal_path, base_generation=0)
    wal.append("insert", {"points": [1]}, generation=1)
    mid = wal.size_bytes
    wal.append("remove", {"ids": [0]}, generation=2)
    wal.close()
    full = open(wal_path, "rb").read()

    torn_path = str(tmp_path / "torn.log")
    for cut in range(mid + 1, len(full)):
        with open(torn_path, "wb") as f:
            f.write(full[:cut])
        records, valid_end, torn = scan(torn_path)
        assert valid_end == mid and torn == cut - mid
        assert [r.gen for r in records] == [0, 1]

        # Reopen truncates the tail and appends cleanly after it.
        reopened = WriteAheadLog.open(torn_path, base_generation=0)
        assert reopened.torn_bytes == cut - mid
        assert os.path.getsize(torn_path) == mid
        reopened.append("remove", {"ids": [0]}, generation=2)
        reopened.close()
        records, _, torn = scan(torn_path)
        assert torn == 0 and [r.gen for r in records] == [0, 1, 2]


def test_interior_corruption_raises_with_offset(wal_path):
    wal = WriteAheadLog.open(wal_path, base_generation=0)
    off = wal.append("insert", {"points": [1, 2, 3]}, generation=1)
    wal.append("remove", {"ids": [0]}, generation=2)
    wal.close()

    data = bytearray(open(wal_path, "rb").read())
    data[off + 12] ^= 0xFF  # flip one payload byte of the interior record
    with open(wal_path, "wb") as f:
        f.write(data)

    with pytest.raises(WalCorruptionError) as err:
        scan(wal_path)
    assert err.value.offset == off and err.value.reason == "crc"


def test_corrupt_final_frame_is_torn_not_fatal(wal_path):
    wal = WriteAheadLog.open(wal_path, base_generation=0)
    off = wal.append("insert", {"points": [1]}, generation=1)
    wal.close()
    data = bytearray(open(wal_path, "rb").read())
    data[-1] ^= 0xFF
    with open(wal_path, "wb") as f:
        f.write(data)
    records, valid_end, torn = scan(wal_path)
    assert [r.gen for r in records] == [0]
    assert valid_end == off and torn == len(data) - off


def test_crc_matched_but_undecodable_payload(wal_path):
    wal = WriteAheadLog.open(wal_path, base_generation=0)
    wal.close()
    # Hand-craft two frames with valid CRCs: garbage JSON, then a valid
    # record after it so the scan cannot dismiss it as a torn tail.
    frames = b""
    for body in (b"not json at all", b'{"op":"insert","gen":2}'):
        frames += struct.pack(
            "<II", len(body), zlib.crc32(body) & 0xFFFFFFFF
        ) + body
    with open(wal_path, "ab") as f:
        f.write(frames)
    with pytest.raises(WalCorruptionError) as err:
        scan(wal_path)
    assert err.value.reason == "decode"


def test_bad_magic_and_version(tmp_path):
    bad = tmp_path / "bad.log"
    bad.write_bytes(b"NOTAWAL!" + b"\0" * 16)
    with pytest.raises(WalError) as err:
        scan(str(bad))
    assert err.value.reason == "magic"

    vers = tmp_path / "vers.log"
    vers.write_bytes(MAGIC + struct.pack("<II", VERSION + 9, 0))
    with pytest.raises(WalError) as err:
        scan(str(vers))
    assert err.value.reason == "version"


# -- fsync policies -----------------------------------------------------------


def test_fsync_policy_always_vs_off(wal_path, tmp_path):
    wal = WriteAheadLog.open(wal_path, base_generation=0, fsync="always")
    base = wal.fsyncs
    wal.append("insert", {"points": []}, generation=1)
    wal.append("insert", {"points": []}, generation=2)
    assert wal.fsyncs == base + 2
    wal.close()

    lazy = WriteAheadLog.open(
        str(tmp_path / "lazy.log"), base_generation=0, fsync="off"
    )
    base = lazy.fsyncs
    for gen in range(1, 6):
        lazy.append("insert", {"points": []}, generation=gen)
    assert lazy.fsyncs == base  # never on append
    lazy.close()  # close always syncs outstanding bytes
    assert lazy.fsyncs == base + 1


def test_fsync_policy_interval(wal_path):
    with durability(fsync="interval", fsync_interval_s=3600.0):
        wal = WriteAheadLog.open(wal_path, base_generation=0)
        base = wal.fsyncs
        wal.append("insert", {"points": []}, generation=1)
        assert wal.fsyncs == base  # window has not elapsed
        with durability(fsync_interval_s=0.0):
            wal.append("insert", {"points": []}, generation=2)
        assert wal.fsyncs == base + 1  # elapsed window syncs
        wal.close()


def test_invalid_fsync_policy_rejected():
    with pytest.raises(TypeError):
        with durability(fsync="sometimes"):
            pass


# -- durable engine sessions --------------------------------------------------


def test_recovery_is_bit_identical(tmp_path):
    points = random_discrete_points(30, 4, seed=5)
    extra = random_discrete_points(8, 3, seed=6)
    Q = random_queries(5, seed=2, bbox=BBOX)
    ddir = str(tmp_path / "dur")

    engine = Engine.open_durable(ddir, list(points))
    engine.insert(extra[:4])
    engine.remove([0, 7, 11])
    engine.insert(extra[4:])
    engine.remove(np.arange(len(engine)) % 9 == 3)
    expected = _fingerprint(engine, Q)
    gen = engine.generation
    cols = engine.columns()
    engine.close()

    recovered = Engine.open_durable(ddir)
    assert recovered.generation == gen
    assert len(recovered) == len(cols.centers)
    np.testing.assert_array_equal(recovered.columns().centers, cols.centers)
    np.testing.assert_array_equal(recovered.columns().radii, cols.radii)
    assert _fingerprint(recovered, Q) == expected
    assert recovered.stats()["wal"]["replayed"] == 4
    recovered.close()


def test_replace_points_recovers_atomically(tmp_path):
    points = random_discrete_points(12, 3, seed=11)
    swapped = random_discrete_points(20, 2, seed=12)
    Q = random_queries(4, seed=9, bbox=BBOX)
    ddir = str(tmp_path / "dur")

    engine = Engine.open_durable(ddir, list(points))
    engine.replace_points(list(swapped))
    expected = _fingerprint(engine, Q)
    gen = engine.generation
    engine.close()

    recovered = Engine.open_durable(ddir)
    assert recovered.generation == gen and len(recovered) == len(swapped)
    assert _fingerprint(recovered, Q) == expected
    recovered.close()


def test_open_durable_existing_rejects_points(tmp_path):
    ddir = str(tmp_path / "dur")
    Engine.open_durable(ddir, random_discrete_points(5, 2, seed=1)).close()
    with pytest.raises(QueryError):
        Engine.open_durable(ddir, random_discrete_points(5, 2, seed=2))


def test_empty_then_grown_session_recovers(tmp_path):
    ddir = str(tmp_path / "dur")
    engine = Engine.open_durable(ddir)
    assert len(engine) == 0
    engine.insert(random_discrete_points(6, 2, seed=3))
    engine.close()
    recovered = Engine.open_durable(ddir)
    assert len(recovered) == 6 and recovered.generation == 1
    recovered.close()


def test_compact_resets_log_and_recovers(tmp_path):
    points = random_discrete_points(15, 3, seed=8)
    Q = random_queries(3, seed=4, bbox=BBOX)
    ddir = str(tmp_path / "dur")
    engine = Engine.open_durable(ddir, list(points))
    for chunk in np.array_split(random_discrete_points(12, 2, seed=9), 4):
        engine.insert(list(chunk))
    assert engine.stats()["wal"]["records"] > 1
    engine.compact()
    stats = engine.stats()["wal"]
    assert stats["records"] == 1 and stats["rotations"] == 1
    expected = _fingerprint(engine, Q)
    gen = engine.generation
    engine.insert(random_discrete_points(3, 2, seed=10))
    post = _fingerprint(engine, Q)
    engine.close()

    recovered = Engine.open_durable(ddir)
    assert recovered.generation == gen + 1
    assert recovered.stats()["wal"]["replayed"] == 1
    assert _fingerprint(recovered, Q) == post
    del expected
    recovered.close()


def test_auto_compaction_by_record_count(tmp_path):
    ddir = str(tmp_path / "dur")
    with durability(compact_records=3):
        engine = Engine.open_durable(
            ddir, random_discrete_points(6, 2, seed=13)
        )
        for i in range(7):
            engine.insert(random_discrete_points(2, 2, seed=20 + i))
        stats = engine.stats()["wal"]
        assert stats["rotations"] >= 1
        assert stats["records"] <= 3
        n, gen = len(engine), engine.generation
        engine.close()
    recovered = Engine.open_durable(ddir)
    assert len(recovered) == n and recovered.generation == gen
    recovered.close()


def test_crash_between_snapshot_and_rotation_replays_as_noop(tmp_path):
    """A fault after the snapshot publish but before the log swap is
    the nastiest rotation crash: the old log's records now overlap the
    new snapshot.  Replay must skip them (generation stamps), yielding
    the exact pre-crash engine."""
    points = random_discrete_points(10, 3, seed=17)
    Q = random_queries(3, seed=5, bbox=BBOX)
    ddir = str(tmp_path / "dur")
    engine = Engine.open_durable(ddir, list(points))
    engine.insert(random_discrete_points(4, 2, seed=18))
    engine.remove([1, 3])
    expected = _fingerprint(engine, Q)
    gen = engine.generation

    with faults.inject(
        faults.FaultSpec(site="wal.rotate", kind="crash", indices=(0,))
    ):
        with pytest.raises(repro.WorkerCrashError):
            engine.compact()
    engine.close()

    # Snapshot is new, log is old: every record is already covered.
    recovered = Engine.open_durable(ddir)
    assert recovered.generation == gen
    assert recovered.stats()["wal"]["replayed"] == 0
    assert _fingerprint(recovered, Q) == expected
    recovered.close()


def test_generation_gap_in_log_is_corruption(tmp_path):
    ddir = str(tmp_path / "dur")
    engine = Engine.open_durable(ddir, random_discrete_points(5, 2, seed=19))
    engine.insert(random_discrete_points(2, 2, seed=20))
    engine.close()
    wal_path = os.path.join(ddir, Engine.WAL_NAME)

    # Append a record whose generation skips ahead.
    body = json.dumps(
        {"op": "remove", "gen": 9, "ids": [0]}, separators=(",", ":")
    ).encode()
    with open(wal_path, "ab") as f:
        f.write(
            struct.pack("<II", len(body), zlib.crc32(body) & 0xFFFFFFFF)
            + body
        )
        # A second valid record after it so it cannot be read as torn.
        f.write(
            struct.pack("<II", len(body), zlib.crc32(body) & 0xFFFFFFFF)
            + body
        )
    with pytest.raises(WalCorruptionError) as err:
        Engine.open_durable(ddir)
    assert err.value.reason == "generation" and err.value.offset is not None


def test_remove_record_outside_the_rows_is_corruption(tmp_path):
    ddir = str(tmp_path / "dur")
    engine = Engine.open_durable(ddir, random_discrete_points(5, 2, seed=19))
    engine.insert(random_discrete_points(2, 2, seed=20))
    engine.close()
    body = json.dumps(
        {"op": "remove", "gen": 2, "ids": [3, 7]}, separators=(",", ":")
    ).encode()
    with open(os.path.join(ddir, Engine.WAL_NAME), "ab") as f:
        f.write(
            struct.pack("<II", len(body), zlib.crc32(body) & 0xFFFFFFFF)
            + body
        )
    with pytest.raises(WalCorruptionError) as err:
        Engine.open_durable(ddir)
    assert err.value.reason == "decode" and err.value.offset is not None


def test_closed_durable_engine_refuses_mutation(tmp_path):
    engine = Engine.open_durable(
        str(tmp_path / "dur"), random_discrete_points(4, 2, seed=21)
    )
    engine.close()
    assert not engine.durable
    with pytest.raises(WalError):
        engine.insert(random_discrete_points(1, 2, seed=22))


def test_durable_stats_and_exports(tmp_path):
    engine = Engine.open_durable(
        str(tmp_path / "dur"), random_discrete_points(4, 2, seed=23)
    )
    stats = engine.stats()
    assert stats["wal"]["fsync_policy"] == DURABILITY.fsync
    json.dumps(stats)  # telemetry must stay JSON-clean
    engine.close()
    # Top-level exports (the documented public surface).
    assert repro.WalError is WalError
    assert repro.WalCorruptionError is WalCorruptionError
    assert issubclass(repro.PayloadTooLargeError, repro.ServiceError)
    assert isinstance(repro.DURABILITY, repro.Durability)
    assert WalRecord("insert", 1, {}, 0).gen == 1


def test_packed_point_wire_round_trip():
    """The WAL's packed batch codec (base64 float64 columns — what
    keeps durable-ingest overhead inside its benchmark bar) must
    round-trip discrete and disk batches exactly, and fall back to
    per-point dicts for everything else."""
    from repro import io as rio
    from repro.constructions import random_disk_points

    discrete = random_discrete_points(20, 3, seed=31)
    wire = rio.points_to_wire(discrete)
    assert isinstance(wire, dict) and wire["pack"] == "discrete"
    back = rio.points_from_wire(wire)
    assert len(back) == len(discrete)
    for a, b in zip(discrete, back):
        assert a.name == b.name
        assert np.array_equal(
            np.asarray(a.locations, float), np.asarray(b.locations, float)
        )
        assert np.array_equal(
            np.asarray(a.weights, float), np.asarray(b.weights, float)
        )

    disks = random_disk_points(10, seed=32)
    wire = rio.points_to_wire(disks)
    assert isinstance(wire, dict) and wire["pack"] == "disk_uniform"
    back = rio.points_from_wire(wire)
    for a, b in zip(disks, back):
        assert a.name == b.name
        assert (a.disk.center.x, a.disk.center.y, a.disk.radius) == (
            b.disk.center.x, b.disk.center.y, b.disk.radius
        )

    # Mixed batches cannot pack: the dict fallback still round-trips.
    mixed = [discrete[0], disks[0]]
    wire = rio.points_to_wire(mixed)
    assert isinstance(wire, list)
    back = rio.points_from_wire(wire)
    assert [type(p) for p in back] == [type(p) for p in mixed]

    # Empty batches stay on the (empty) fallback form.
    assert rio.points_to_wire([]) == []
    assert rio.points_from_wire([]) == []


def test_packed_point_wire_rejects_malformed():
    from repro import io as rio
    from repro.errors import DistributionError

    good = rio.points_to_wire(random_discrete_points(3, 2, seed=33))
    bad = dict(good)
    bad["counts"] = [1]  # mismatched counts vs packed payload length
    with pytest.raises(DistributionError):
        rio.points_from_wire(bad)
    with pytest.raises(DistributionError):
        rio.points_from_wire({"pack": "no-such-pack"})
    with pytest.raises(DistributionError):
        rio.points_from_wire("not a batch")


def test_durable_recovery_through_packed_records(tmp_path):
    """An engine whose log holds packed insert/replace frames recovers
    bit-identically (generation, length, answers)."""
    from repro.constructions import random_disk_points

    ddir = str(tmp_path / "dur")
    Q = np.asarray(random_queries(8, seed=34, bbox=BBOX))
    spec = QuerySpec(method="expected_nn")
    engine = Engine.open_durable(ddir, random_discrete_points(6, 2, seed=35))
    engine.insert(random_discrete_points(4, 3, seed=36))
    engine.insert(random_disk_points(5, seed=37))  # packed disk batch
    engine.replace_points(random_discrete_points(7, 2, seed=38))
    before = engine.query(Q, spec)
    n, gen = len(engine), engine.generation
    engine.close()

    recovered = Engine.open_durable(ddir)
    after = recovered.query(Q, spec)
    assert (len(recovered), recovered.generation) == (n, gen)
    assert np.array_equal(before.answers, after.answers)
    assert np.array_equal(before.values, after.values)
    assert recovered.stats()["wal"]["replayed"] == 3
    recovered.close()


# -- differential recovery ----------------------------------------------------

_SEEDS = st.integers(0, 10**6)
_OPS = st.one_of(
    st.tuples(
        st.just("insert"), st.integers(1, 5),
        st.sampled_from(["discrete", "disk"]), _SEEDS,
    ),
    st.tuples(
        st.just("remove"), st.lists(st.integers(0, 10**6), min_size=1, max_size=4)
    ),
    st.tuples(st.just("remove_tail"), st.integers(1, 5)),
    st.tuples(st.just("remove_all")),
    st.tuples(st.just("replace"), st.integers(0, 6), _SEEDS),
)


def _batch(kind, count, seed):
    if kind == "disk":
        return random_disk_points(count, seed=seed)
    return random_discrete_points(count, 1 + seed % 4, seed=seed)


def _apply(engine, op):
    """Run one generated op on the live engine (ops that would not
    mutate an empty engine are skipped, so they log nothing)."""
    n = len(engine)
    if op[0] == "insert":
        engine.insert(_batch(op[2], op[1], op[3]))
    elif op[0] == "replace":
        engine.replace_points(_batch("discrete", op[1], op[2]))
    elif n == 0:
        return
    elif op[0] == "remove":
        engine.remove([i % n for i in op[1]])
    elif op[0] == "remove_tail":  # the newest points: often just inserted
        engine.remove(np.arange(max(0, n - op[1]), n))
    else:  # remove_all
        engine.remove(np.arange(n))


def _state(engine, Q):
    """Everything recovery must reproduce: relation, generation, column
    bytes, and the answers of four methods."""
    cols = {}
    if len(engine):
        for name, arr in engine.columns().arrays().items():
            cols[name] = (arr.dtype.str, arr.shape, arr.tobytes())
    specs = [
        QuerySpec(method="expected_nn"),
        QuerySpec(method="nonzero"),
        QuerySpec(method="expected_knn", k=max(1, min(2, len(engine)))),
        QuerySpec(method="threshold", tau=0.1),
    ]
    answers = []
    for spec in specs:
        try:
            result = engine.query(Q, spec)
        except QueryError as exc:  # exact threshold on a mix with disks
            answers.append(str(exc))
            continue
        for part in (result.answers, result.values):
            if isinstance(part, np.ndarray):
                part = (part.dtype.str, part.shape, part.tobytes())
            answers.append(part)
    return repro.io.dumps(engine.points), engine.generation, cols, answers


@settings(max_examples=40, deadline=None)
@given(
    n0=st.integers(0, 8),
    seed=_SEEDS,
    ops=st.lists(_OPS, max_size=10),
    snapshot_at=st.one_of(st.none(), st.integers(0, 10)),
    torn=st.booleans(),
)
@example(  # remove-to-empty, then grow again
    n0=4, seed=1, ops=[("remove_all",), ("insert", 3, "discrete", 2)],
    snapshot_at=None, torn=False,
)
@example(  # insert-then-remove of the same points
    n0=5, seed=2, ops=[("insert", 4, "discrete", 3), ("remove_tail", 4)],
    snapshot_at=None, torn=False,
)
@example(  # a replace mid-log, with inserts and removes on either side
    n0=6, seed=3,
    ops=[("insert", 2, "disk", 4), ("remove", [0, 3]),
         ("replace", 5, 5), ("insert", 3, "discrete", 6), ("remove", [1])],
    snapshot_at=None, torn=False,
)
@example(  # records the snapshot already covers, then a torn tail
    n0=5, seed=4,
    ops=[("insert", 3, "discrete", 7), ("remove", [2]),
         ("insert", 2, "disk", 8), ("remove", [0, 1])],
    snapshot_at=2, torn=True,
)
def test_recovery_matches_the_live_engine(n0, seed, ops, snapshot_at, torn):
    """Recovering any log gives the engine that acknowledged it: same
    relation and generation, every column array equal byte for byte,
    and the same answers."""
    Q = random_queries(6, seed=seed, bbox=BBOX)
    with tempfile.TemporaryDirectory() as ddir:
        engine = Engine.open_durable(
            ddir, random_discrete_points(n0, 3, seed=seed) or None,
            fsync="off",
        )
        snapshot_gen = engine.generation
        for i, op in enumerate(ops):
            if i == snapshot_at:
                # Crash between snapshot publish and log rotation: the
                # log keeps records the new snapshot already covers.
                with faults.inject(
                    faults.FaultSpec(site="wal.rotate", kind="crash", indices=(0,))
                ):
                    with pytest.raises(repro.WorkerCrashError):
                        engine.compact()
                snapshot_gen = engine.generation
            _apply(engine, op)
        live = _state(engine, Q)
        engine.close()
        if torn:
            # A crash mid-append: the final frame holds half its payload.
            with open(os.path.join(ddir, Engine.WAL_NAME), "ab") as f:
                f.write(struct.pack("<II", 64, 0) + b'{"op":"insert","gen"')

        recovered = Engine.open_durable(ddir, fsync="off")
        try:
            assert _state(recovered, Q) == live
            replayed = recovered.stats()["wal"]["replayed"]
            assert replayed == live[1] - snapshot_gen
        finally:
            recovered.close()
