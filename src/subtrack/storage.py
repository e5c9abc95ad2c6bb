"""Dataset and run-artifact persistence.

Control plane is JSON (fixed key order, floats in Python's shortest round-trip
repr); bulk features are raw little-endian float32 files, one per tracklet.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from .model import Tracklet
from .synth import SpliceRecord, SyntheticDataset

FORMAT_VERSION = 1


class StorageError(Exception):
    pass


def dump_json(obj, path) -> None:
    """Deterministic JSON written atomically via temp-file rename."""
    path = Path(path)
    text = json.dumps(obj, indent=2) + "\n"
    _atomic_write(path, text.encode("utf-8"))


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_dataset(tracklets: list[Tracklet], out_dir, splice_log: Optional[dict] = None) -> None:
    out_dir = Path(out_dir)
    if len({t.id for t in tracklets}) != len(tracklets):
        raise StorageError("tracklet ids must be unique")
    for t in tracklets:
        if os.sep in t.id or (os.altsep and os.altsep in t.id):
            raise StorageError(f"tracklet id {t.id!r} is not a file name")
    d_raw = tracklets[0].frames.shape[1]
    entries = []
    for t in tracklets:
        if t.frames.shape[1] != d_raw:
            raise StorageError(f"tracklet {t.id}: dimension mismatch")
        data = np.ascontiguousarray(t.frames, dtype="<f4").tobytes()
        _atomic_write(out_dir / f"{t.id}.f32", data)
        entry = {
            "tracklet_id": t.id,
            "frame_count": int(t.frames.shape[0]),
            "feature_file": f"{t.id}.f32",
        }
        if t.identity is not None:
            entry["identity"] = int(t.identity)
        if t.camera is not None:
            entry["camera"] = int(t.camera)
        entries.append(entry)
    manifest = {"format_version": FORMAT_VERSION, "d_raw": int(d_raw), "tracklets": entries}
    dump_json(manifest, out_dir / "manifest.json")
    if splice_log:
        splices = {
            tid: [{"start": r.start, "end": r.end, "source_identity": r.source_identity}
                  for r in recs]
            for tid, recs in sorted(splice_log.items())
        }
        dump_json(splices, out_dir / "splices.json")


def write_synthetic(ds: SyntheticDataset, out_dir) -> None:
    write_dataset(ds.tracklets, out_dir, splice_log=ds.splice_log)


def _field(obj, key: str, where: str, kind: Optional[type] = None):
    """``obj[key]``, which must exist and, given ``kind``, have exactly that type."""
    try:
        value = obj[key]
    except (KeyError, TypeError):
        raise StorageError(f"{where}: missing {key!r}") from None
    if kind is not None and type(value) is not kind:
        raise StorageError(f"{where}: {key!r} must be of type {kind.__name__}, not {value!r}")
    return value


def _count(obj, key: str, where: str) -> int:
    value = _field(obj, key, where, int)
    if value < 1:
        raise StorageError(f"{where}: {key!r} must be at least 1, not {value}")
    return value


def read_dataset(in_dir) -> tuple[list[Tracklet], dict[str, list[SpliceRecord]]]:
    in_dir = Path(in_dir)
    try:
        manifest = load_json(in_dir / "manifest.json")
    except FileNotFoundError:
        raise StorageError(f"missing manifest.json in {in_dir}")
    except json.JSONDecodeError as exc:
        raise StorageError(f"malformed manifest.json: {exc}")
    d_raw = _count(manifest, "d_raw", "manifest.json")
    entries = _field(manifest, "tracklets", "manifest.json", list)
    if not entries:
        raise StorageError("manifest.json: 'tracklets' is empty")
    seen = set()
    tracklets = []
    for pos, entry in enumerate(entries):
        tid = _field(entry, "tracklet_id", f"manifest entry {pos}", str)
        if tid in seen:
            raise StorageError(f"duplicate tracklet id {tid!r}")
        seen.add(tid)
        where = f"tracklet {tid!r}"
        frame_count = _count(entry, "frame_count", where)
        name = os.path.normpath(_field(entry, "feature_file", where, str))
        if os.path.isabs(name) or name.split(os.sep)[0] == os.pardir:
            raise StorageError(f"{where}: feature file lies outside {in_dir}")
        path = in_dir / name
        if not path.is_file():
            raise StorageError(f"missing feature file for tracklet {tid!r}")
        expected = frame_count * d_raw * 4
        actual = path.stat().st_size
        if actual != expected:
            raise StorageError(
                f"{where}: feature file is {actual} bytes, manifest implies {expected}"
            )
        frames = np.fromfile(path, dtype="<f4").reshape(frame_count, d_raw)
        if not frames.any(axis=1).all():
            raise StorageError(f"{where}: frame {np.argmin(frames.any(axis=1))} is all zeros")
        identity, camera = (None if entry.get(k) is None else _field(entry, k, where, int)
                            for k in ("identity", "camera"))
        tracklets.append(Tracklet(tid, frames, identity=identity, camera=camera))
    splice_log: dict[str, list[SpliceRecord]] = {}
    splice_path = in_dir / "splices.json"
    if splice_path.exists():
        splices = load_json(splice_path)
        if type(splices) is not dict:
            raise StorageError("splices.json must be an object of per-tracklet record lists")
        for tid in splices:
            splice_log[tid] = [
                SpliceRecord(*(_field(r, k, f"splices.json record {i} of {tid!r}", int)
                               for k in ("start", "end", "source_identity")))
                for i, r in enumerate(_field(splices, tid, "splices.json", list))
            ]
    return tracklets, splice_log


def dataclass_from_json(cls, obj, where: str):
    """Dataclass ``cls`` with the fields that JSON object ``obj`` sets, each of its default's type.

    int fields take int but not bool, float fields int or float, tuple fields a list
    of two ints, and a field whose default is None (``iters_per_epoch``) int or null.
    """
    if type(obj) is not dict:
        raise StorageError(f"{where} must be a JSON object, not {json.dumps(obj)[:40]}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(obj) - set(defaults))
    if unknown:
        raise StorageError(f"{where}: unknown fields {unknown}")
    values = {}
    for key, value in obj.items():
        default = defaults[key]
        kind = int if default is None else type(default)
        if kind is float and type(value) is int:
            value = float(value)
        if kind is tuple and type(value) is list and [type(v) for v in value] == [int, int]:
            value = tuple(value)
        if type(value) is not kind and not (default is None and value is None):
            raise StorageError(f"{where}: {key!r} must be of type {kind.__name__}, not {value!r}")
        values[key] = value
    return cls(**values)


def write_weights(weights: np.ndarray, path) -> None:
    buf = io.BytesIO()
    np.save(buf, np.asarray(weights, dtype=np.float64), allow_pickle=False)
    _atomic_write(Path(path), buf.getvalue())


def read_weights(path) -> np.ndarray:
    weights = np.load(path, allow_pickle=False)
    if not isinstance(weights, np.ndarray) or weights.ndim != 2 or weights.dtype.kind != "f":
        raise StorageError(f"{path}: weights must be a 2-D float array in .npy format")
    if not np.isfinite(weights).all():
        raise StorageError(f"{path}: weights have NaN or infinite entries")
    return weights
