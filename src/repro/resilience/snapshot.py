"""Versioned engine snapshots: ``Engine.save(path)`` / ``Engine.load(path)``.

A snapshot is a single ``.npz`` holding

* ``manifest`` — JSON header: magic string, format version, dataset
  size, generation counter, model histogram, the registry keys that
  were built at save time (a *rebuild-on-miss manifest*: restored
  engines rebuild those structures lazily on their first use, so a
  restore is never blocked on index construction), and a SHA-256
  checksum over the payload;
* ``points`` — the uncertain relation as UTF-8 JSON in the write-ahead
  log's codec, :func:`repro.io.points_to_wire`: a relation of only
  discrete points or only disks is base64 float64 columns, any other
  relation a list of per-point dicts.  Both forms round-trip IEEE
  doubles exactly, so restored models are bit-identical;
* ``col_*`` — the :class:`~repro.uncertain.columns.ModelColumns`
  arrays, written so a restore installs the summarised column store
  directly instead of re-summarising every point.

Format 2 is the one written.  Format 1 stored the relation as a JSON
list of point dicts, which is a valid wire batch too, so both load
through :func:`repro.io.points_from_wire`; a format-1 column store
gets its discrete and polygon radii re-measured on load
(:func:`repro.uncertain.columns.support_radii`), because format 1
stored smallest-enclosing-circle radii that can leave a support point
outside.

Writes are atomic and durable (temp file in the target directory,
``fsync``, then ``os.replace``; the temp file is removed on any
failure), so a crash mid-save never leaves a half-written snapshot —
or a stray temp file — at the target path.  Loads
validate magic, version, checksum, and cross-array consistency and
raise :class:`repro.errors.SnapshotError` on any problem — a corrupted
or truncated snapshot never loads garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Optional

import numpy as np

from .. import io as _io
from ..errors import ReproError, SnapshotError
from ..uncertain.columns import ModelColumns, support_radii
from . import faults as _faults

__all__ = ["MAGIC", "VERSION", "save_engine", "load_engine", "read_manifest"]

MAGIC = "repro-engine-snapshot"
VERSION = 2
#: Every format version this library reads.
READABLE = (1, 2)


def _checksum(points_bytes: bytes, col_arrays: Optional[Dict[str, np.ndarray]]) -> str:
    """SHA-256 over the payload in a fixed, schema-defined order."""
    h = hashlib.sha256()
    h.update(points_bytes)
    if col_arrays is not None:
        for name in ModelColumns.ARRAY_FIELDS:
            arr = np.ascontiguousarray(col_arrays[name])
            h.update(name.encode("utf-8"))
            h.update(str(arr.dtype).encode("utf-8"))
            h.update(str(arr.shape).encode("utf-8"))
            h.update(arr.tobytes())
    return h.hexdigest()


def save_engine(engine, path: str) -> str:
    """Write a versioned snapshot of ``engine`` to ``path``.

    Returns the path written.  Raises :class:`SnapshotError` on I/O
    failure; the write is atomic, so ``path`` either holds the previous
    content or a complete new snapshot, never a torn one.
    """
    from ..engine import _key_label  # localised: engine imports this module

    points_bytes = json.dumps(
        _io.points_to_wire(engine.points)
    ).encode("utf-8")
    col_arrays = None
    if len(engine):
        # Build (or fetch) the column store so restores skip
        # per-point re-summarisation entirely.
        col_arrays = {
            name: np.ascontiguousarray(arr)
            for name, arr in engine.columns().arrays().items()
        }
    manifest = {
        "magic": MAGIC,
        "version": VERSION,
        "n": len(engine),
        "generation": engine.generation,
        "models": engine.model_histogram() if len(engine) else {},
        "built_indexes": [
            _key_label(k) for k in engine.registry.keys(engine.generation)
        ],
        "checksum": _checksum(points_bytes, col_arrays),
    }
    payload = {
        "manifest": np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        ),
        "points": np.frombuffer(points_bytes, dtype=np.uint8),
    }
    if col_arrays is not None:
        for name, arr in col_arrays.items():
            payload[f"col_{name}"] = arr
    _faults.fire("snapshot.write")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=".repro-snapshot-", suffix=".npz.tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(f, **payload)
                # Durability before visibility: the payload must be on
                # stable storage before the rename can publish it, or a
                # power loss could leave a complete-looking but empty
                # snapshot at the target path.
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
            _fsync_directory(directory)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise SnapshotError(
            f"cannot write snapshot to {path!r}: {exc}", path=path, reason="io"
        ) from exc
    return path


def _fsync_directory(directory: str) -> None:
    """Flush the directory entry of a just-renamed file (best effort:
    not every platform/filesystem allows ``open(dir)`` + ``fsync``)."""
    try:
        dfd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)


def read_manifest(path: str) -> Dict[str, object]:
    """Read and validate just the manifest header of a snapshot."""
    with _open(path) as data:
        return _manifest(data, path)


def _open(path: str):
    try:
        return np.load(path, allow_pickle=False)
    except FileNotFoundError as exc:
        raise SnapshotError(
            f"snapshot file {path!r} does not exist", path=path, reason="io"
        ) from exc
    except ReproError:
        raise
    except Exception as exc:
        # Truncated zip members, bad headers, non-npz files: numpy and
        # zipfile raise a zoo of exception types here, all of which mean
        # the same thing for the caller.
        raise SnapshotError(
            f"cannot read snapshot {path!r} (corrupted or not a snapshot): "
            f"{exc}",
            path=path, reason="truncated",
        ) from exc


def _manifest(data, path: str) -> Dict[str, object]:
    if "manifest" not in data:
        raise SnapshotError(
            f"{path!r} has no snapshot manifest", path=path, reason="magic"
        )
    try:
        manifest = json.loads(bytes(data["manifest"]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"snapshot manifest in {path!r} is not valid JSON",
            path=path, reason="schema",
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("magic") != MAGIC:
        raise SnapshotError(
            f"{path!r} is not a {MAGIC} file", path=path, reason="magic"
        )
    version = manifest.get("version")
    if version not in READABLE:
        raise SnapshotError(
            f"snapshot {path!r} has format version {version!r}; this "
            f"library reads versions {READABLE}",
            path=path, reason="version",
        )
    return manifest


def load_engine(path: str, result_cache_size: int = 32):
    """Restore an :class:`repro.Engine` from a snapshot written by
    :func:`save_engine`.

    The restored engine answers every query bit-identically to the
    saved one: the point relation round-trips exactly through the wire
    codec and the summarised column store is installed verbatim (a
    format-1 store with its radii re-measured).  Indexes listed in the
    manifest rebuild lazily on their first miss.
    """
    from ..engine import Engine

    with _open(path) as data:
        manifest = _manifest(data, path)
        try:
            try:
                points_bytes = bytes(data["points"])
            except KeyError as exc:
                raise SnapshotError(
                    f"snapshot {path!r} is missing its points payload",
                    path=path, reason="schema",
                ) from exc
            col_arrays = None
            if int(manifest.get("n", 0)) > 0:
                try:
                    col_arrays = {
                        name: np.asarray(data[f"col_{name}"])
                        for name in ModelColumns.ARRAY_FIELDS
                    }
                except KeyError as exc:
                    raise SnapshotError(
                        f"snapshot {path!r} is missing column array {exc}",
                        path=path, reason="schema",
                    ) from exc
        except ReproError:
            raise
        except Exception as exc:
            # npz members decompress lazily; CRC errors and truncated
            # streams surface here rather than at open time.
            raise SnapshotError(
                f"snapshot {path!r} payload is corrupted: {exc}",
                path=path, reason="truncated",
            ) from exc
        digest = _checksum(points_bytes, col_arrays)
        if digest != manifest.get("checksum"):
            raise SnapshotError(
                f"snapshot {path!r} failed checksum validation (stored "
                f"{manifest.get('checksum')!r}, computed {digest!r}) — the "
                f"file is corrupted",
                path=path, reason="checksum",
            )
        try:
            points = _io.points_from_wire(json.loads(points_bytes))
        except (ReproError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot {path!r} holds an undecodable relation: {exc}",
                path=path, reason="schema",
            ) from exc
        if len(points) != int(manifest.get("n", -1)):
            raise SnapshotError(
                f"snapshot {path!r} manifest says n={manifest.get('n')} but "
                f"the relation holds {len(points)} points",
                path=path, reason="schema",
            )
        engine = Engine(points, result_cache_size=result_cache_size)
        engine._generation = int(manifest.get("generation", 0))
        if col_arrays is not None:
            try:
                cols = ModelColumns.from_arrays(col_arrays)
            except ValueError as exc:
                raise SnapshotError(
                    f"snapshot {path!r} holds inconsistent column arrays: "
                    f"{exc}",
                    path=path, reason="schema",
                ) from exc
            if cols.n != len(points):
                raise SnapshotError(
                    f"snapshot {path!r} column store covers {cols.n} rows "
                    f"for {len(points)} points",
                    path=path, reason="schema",
                )
            if manifest["version"] == 1:
                cols.radii = support_radii(cols, points)
            engine.registry.put(("columns",), engine.generation, cols)
        return engine
