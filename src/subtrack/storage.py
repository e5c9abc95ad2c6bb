"""Dataset and run-artifact persistence.

Control plane is JSON (fixed key order, floats at 17 significant digits);
bulk features are raw little-endian float32 files, one per tracklet.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from .model import Tracklet
from .synth import SpliceRecord, SyntheticDataset, SyntheticSpec

FORMAT_VERSION = 1


class StorageError(Exception):
    pass


def _format_floats(obj):
    if isinstance(obj, float):
        return float(format(obj, ".17g"))
    if isinstance(obj, dict):
        return {k: _format_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_format_floats(v) for v in obj]
    return obj


def dump_json(obj, path) -> None:
    """Deterministic JSON written atomically via temp-file rename."""
    path = Path(path)
    text = json.dumps(_format_floats(obj), indent=2) + "\n"
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
    out_dir.mkdir(parents=True, exist_ok=True)
    if len({t.id for t in tracklets}) != len(tracklets):
        raise StorageError("tracklet ids must be unique")
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


def _field(obj, key: str, where: str):
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise StorageError(f"{where}: missing {key!r}") from None


def read_dataset(in_dir) -> tuple[list[Tracklet], dict[str, list[SpliceRecord]]]:
    in_dir = Path(in_dir)
    try:
        manifest = load_json(in_dir / "manifest.json")
    except FileNotFoundError:
        raise StorageError(f"missing manifest.json in {in_dir}")
    except json.JSONDecodeError as exc:
        raise StorageError(f"malformed manifest.json: {exc}")
    d_raw = _field(manifest, "d_raw", "manifest.json")
    seen = set()
    tracklets = []
    for pos, entry in enumerate(_field(manifest, "tracklets", "manifest.json")):
        tid = _field(entry, "tracklet_id", f"manifest entry {pos}")
        if tid in seen:
            raise StorageError(f"duplicate tracklet id {tid!r}")
        seen.add(tid)
        frame_count = _field(entry, "frame_count", f"tracklet {tid!r}")
        name = os.path.normpath(_field(entry, "feature_file", f"tracklet {tid!r}"))
        if os.path.isabs(name) or name.split(os.sep)[0] == os.pardir:
            raise StorageError(f"tracklet {tid!r}: feature file lies outside {in_dir}")
        path = in_dir / name
        if not path.is_file():
            raise StorageError(f"missing feature file for tracklet {tid!r}")
        expected = frame_count * d_raw * 4
        actual = path.stat().st_size
        if actual != expected:
            raise StorageError(
                f"tracklet {tid!r}: feature file is {actual} bytes, manifest implies {expected}"
            )
        frames = np.fromfile(path, dtype="<f4").reshape(frame_count, d_raw)
        tracklets.append(
            Tracklet(tid, frames, identity=entry.get("identity"), camera=entry.get("camera"))
        )
    splice_log: dict[str, list[SpliceRecord]] = {}
    splice_path = in_dir / "splices.json"
    if splice_path.exists():
        for tid, recs in load_json(splice_path).items():
            splice_log[tid] = [
                SpliceRecord(r["start"], r["end"], r["source_identity"]) for r in recs
            ]
    return tracklets, splice_log


def synthetic_spec_from_dict(d: dict) -> SyntheticSpec:
    d = dict(d)
    for key in ("tracklet_length_range", "splice_len_range"):
        if key in d:
            d[key] = tuple(d[key])
    return SyntheticSpec(**d)


def write_weights(weights: np.ndarray, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        np.save(tmp, np.asarray(weights, dtype=np.float64), allow_pickle=False)
        os.replace(tmp + ".npy", path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_weights(path) -> np.ndarray:
    return np.load(path, allow_pickle=False)
