"""Dataset and run-artifact persistence.

Control plane is JSON (fixed key order, floats in Python's shortest round-trip
repr); bulk features are raw little-endian float32 files, one per tracklet.
Every file reaches disk through one ``write_files`` call per command output:
a map from file name to bytes, or to None for a stale file to remove.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
from pathlib import Path
from typing import Optional

import numpy as np

from .model import SpliceRecord, Tracklet

FORMAT_VERSION = 1


class StorageError(Exception):
    pass


def write_files(out_dir, files: dict[str, Optional[bytes]]) -> None:
    """Write each of ``files`` into ``out_dir``: its bytes, or None to remove the file.

    A name that is a directory is refused first. Every file is staged under a temporary name
    before the first is moved in, and a failure removes the staged files not yet moved in and
    then each directory that this call made and left empty; a rename that fails after the
    first move keeps the earlier moves."""
    out_dir = Path(out_dir)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in files:
        if (out_dir / name).is_dir():
            raise IsADirectoryError(f"{out_dir / name} is a directory, not a file")
    tag = f"{os.getpid()}.{os.urandom(8).hex()}.tmp"
    staged = {}  # temporary path -> target, until it is moved in
    try:
        for name, data in files.items():
            if data is not None:  # "x": a new file, 0o666 less the umask, as open() makes it
                with open(out_dir / f"{name}.{tag}", "xb") as fh:
                    staged[out_dir / f"{name}.{tag}"] = out_dir / name
                    fh.write(data)
        for tmp, path in list(staged.items()):
            os.replace(tmp, path)
            del staged[tmp]
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        with contextlib.suppress(OSError):  # one that a rename filled stays, with its parents
            for made_dir in made:
                made_dir.rmdir()
        raise
    for name, data in files.items():
        if data is None:
            (out_dir / name).unlink(missing_ok=True)


def json_bytes(obj) -> bytes:
    """Deterministic JSON: fixed key order, two-space indent, a final newline."""
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def dump_json(obj, path) -> None:
    path = Path(path)
    write_files(path.parent, {path.name: json_bytes(obj)})


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _feature_files(out_dir: Path) -> set[str]:
    """The ``.f32`` file names that a manifest.json in ``out_dir`` lists; none if it is
    unreadable. Names with a directory part are left out, so no other file is named."""
    try:
        entries = load_json(out_dir / "manifest.json")["tracklets"]
        names = {entry["feature_file"] for entry in entries}
    except (OSError, ValueError, KeyError, TypeError):
        return set()
    return {n for n in names if type(n) is str and n.endswith(".f32") and Path(n).name == n}


def write_dataset(tracklets: list[Tracklet], out_dir, splice_log: Optional[dict] = None) -> None:
    """Every check, then one ``write_files`` call: the feature files and the manifest, and
    None for an earlier write's ``splices.json`` and feature files that are not rewritten."""
    out_dir = Path(out_dir)
    if not tracklets:
        raise StorageError("no tracklets to write")
    if len({t.id for t in tracklets}) != len(tracklets):
        raise StorageError("tracklet ids must be unique")
    _check_splices(splice_log or {}, {t.id: len(t) for t in tracklets})
    d_raw = tracklets[0].frames.shape[1]
    files, entries = {}, []
    for t in tracklets:
        if os.sep in t.id or (os.altsep and os.altsep in t.id):
            raise StorageError(f"tracklet id {t.id!r} is not a file name")
        if t.frames.shape[1] != d_raw:
            raise StorageError(f"tracklet {t.id}: dimension mismatch")
        files[f"{t.id}.f32"] = np.ascontiguousarray(t.frames, dtype="<f4").tobytes()
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
    files["manifest.json"] = json_bytes(manifest)
    splices = {tid: [{"start": r.start, "end": r.end, "source_identity": r.source_identity}
                     for r in recs] for tid, recs in sorted((splice_log or {}).items())}
    files["splices.json"] = json_bytes(splices) if splices else None  # None drops an earlier one
    for name in sorted(_feature_files(out_dir) - files.keys()):  # an earlier write's tracklets
        files[name] = None
    write_files(out_dir, files)


def write_synthetic(dataset, out_dir) -> None:
    """Write the ``(tracklets, splice_log)`` pair that ``synth.generate`` returns."""
    write_dataset(dataset[0], out_dir, splice_log=dataset[1])


def _check_splices(splice_log: dict, frame_counts: dict[str, int]) -> None:
    """Each splice record names a tracklet of the dataset and lies inside its frames."""
    for tid, records in splice_log.items():
        if tid not in frame_counts:
            raise StorageError(f"splices.json names tracklet {tid!r}, which is not in the dataset")
        for i, r in enumerate(records):
            if not 0 <= r.start <= r.end < frame_counts[tid]:
                raise StorageError(f"splices.json record {i} of {tid!r} lies outside its frames")


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
        identity, camera = (None if entry.get(k) is None else _field(entry, k, where, int)
                            for k in ("identity", "camera"))
        try:
            tracklets.append(Tracklet(tid, frames, identity=identity, camera=camera))
        except ValueError as exc:  # an all-zero or non-finite frame
            raise StorageError(str(exc)) from None
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
    _check_splices(splice_log, {t.id: len(t) for t in tracklets})
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


def weights_bytes(weights: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.asarray(weights, dtype=np.float64), allow_pickle=False)
    return buf.getvalue()


def write_weights(weights: np.ndarray, path) -> None:
    path = Path(path)
    write_files(path.parent, {path.name: weights_bytes(weights)})


def read_weights(path) -> np.ndarray:
    try:
        weights = np.load(path, allow_pickle=False)
    except EOFError:
        raise StorageError(f"{path}: weights file is empty") from None
    if not isinstance(weights, np.ndarray) or weights.ndim != 2 or weights.dtype.kind != "f":
        raise StorageError(f"{path}: weights must be a 2-D float array in .npy format")
    if not np.isfinite(weights).all():
        raise StorageError(f"{path}: weights have NaN or infinite entries")
    return weights
