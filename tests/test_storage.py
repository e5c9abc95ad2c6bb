import json

import numpy as np
import pytest

from subtrack.model import Tracklet, TrainConfig
from subtrack.storage import (
    StorageError,
    dataclass_from_json,
    dump_json,
    load_json,
    read_dataset,
    read_weights,
    write_dataset,
    write_synthetic,
    write_weights,
)
from subtrack.synth import SpliceRecord, SyntheticSpec, generate


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    tracklets = [
        Tracklet("a", rng.normal(size=(10, 6)).astype(np.float32), identity=1, camera=0),
        Tracklet("b", rng.normal(size=(4, 6)).astype(np.float32)),
    ]
    write_dataset(tracklets, tmp_path)
    loaded, splices = read_dataset(tmp_path)
    assert splices == {}
    by_id = {t.id: t for t in loaded}
    for t in tracklets:
        got = by_id[t.id]
        assert np.array_equal(
            got.frames.astype(np.float32), t.frames.astype(np.float32)
        )
    assert by_id["a"].identity == 1 and by_id["a"].camera == 0
    assert by_id["b"].identity is None and by_id["b"].camera is None


def test_feature_file_size(tmp_path):
    frames = np.zeros((10, 64), dtype=np.float32)
    write_dataset([Tracklet("x", frames)], tmp_path)
    assert (tmp_path / "x.f32").stat().st_size == 2560


def test_size_mismatch_names_tracklet(tmp_path):
    write_dataset([Tracklet("broken", np.zeros((3, 4)))], tmp_path)
    manifest = load_json(tmp_path / "manifest.json")
    manifest["tracklets"][0]["frame_count"] = 99
    dump_json(manifest, tmp_path / "manifest.json")
    with pytest.raises(StorageError, match="broken"):
        read_dataset(tmp_path)


def test_all_zero_frame_names_tracklet_and_frame(tmp_path):
    frames = np.ones((4, 3))
    frames[2] = 0.0
    write_dataset([Tracklet("dark", frames)], tmp_path)
    with pytest.raises(StorageError, match="'dark': frame 2 is all zeros"):
        read_dataset(tmp_path)


def test_missing_manifest(tmp_path):
    with pytest.raises(StorageError, match="manifest"):
        read_dataset(tmp_path)


def test_malformed_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(StorageError, match="malformed"):
        read_dataset(tmp_path)


def test_missing_feature_file(tmp_path):
    write_dataset([Tracklet("gone", np.zeros((2, 3)))], tmp_path)
    (tmp_path / "gone.f32").unlink()
    with pytest.raises(StorageError, match="gone"):
        read_dataset(tmp_path)


def test_duplicate_ids_rejected(tmp_path):
    dup = [Tracklet("d", np.zeros((1, 2))), Tracklet("d", np.zeros((1, 2)))]
    with pytest.raises(StorageError, match="unique"):
        write_dataset(dup, tmp_path)


def test_write_dataset_rejects_ids_that_are_not_file_names(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(StorageError, match="not a file name"):
        write_dataset([Tracklet("ok", np.zeros((1, 2))), Tracklet("../escaped", np.zeros((1, 2)))],
                      out)
    assert not (tmp_path / "escaped.f32").exists()
    assert not out.exists()


def test_synthetic_round_trip_with_splices(tmp_path):
    spec = SyntheticSpec(
        num_identities=4,
        tracklets_per_identity=2,
        tracklet_length_range=(40, 60),
        splice_rate=0.8,
        splice_len_range=(8, 12),
        seed=5,
    )
    ds = generate(spec)
    assert ds.splice_log  # the rate makes at least one splice overwhelmingly likely
    write_synthetic(ds, tmp_path)
    tracklets, splices = read_dataset(tmp_path)
    assert len(tracklets) == len(ds.tracklets)
    assert splices == ds.splice_log
    assert all(isinstance(r, SpliceRecord) for recs in splices.values() for r in recs)


def test_dump_json_deterministic_bytes(tmp_path):
    payload = {"a": 1 / 3, "b": [1.0, 2.5e-17], "c": "text"}
    dump_json(payload, tmp_path / "one.json")
    dump_json(payload, tmp_path / "two.json")
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    # Python's shortest round-trip repr reads back as the same double
    assert load_json(tmp_path / "one.json")["a"] == 1 / 3


def test_dump_json_atomic_leaves_no_temp_files(tmp_path, monkeypatch):
    writers = [(dump_json, {"k": 1}), (write_weights, np.eye(3))]
    for writer, payload in writers:
        out = tmp_path / writer.__name__
        writer(payload, out / "out")
        assert [p.name for p in out.iterdir()] == ["out"]
    # a write that fails at the final rename leaves neither target nor temp file behind
    monkeypatch.setattr("subtrack.storage.os.replace", _failing_replace)
    for writer, payload in writers:
        out = tmp_path / f"{writer.__name__}_failed"
        with pytest.raises(OSError):
            writer(payload, out / "out")
        assert list(out.iterdir()) == []


def _failing_replace(src, dst):
    raise OSError("simulated rename failure")


def test_manifest_shape(tmp_path):
    write_dataset([Tracklet("t0", np.zeros((2, 3)), identity=7, camera=1)], tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["format_version"] == 1
    assert manifest["d_raw"] == 3
    entry = manifest["tracklets"][0]
    assert entry["tracklet_id"] == "t0"
    assert entry["frame_count"] == 2
    assert entry["feature_file"] == "t0.f32"
    assert entry["identity"] == 7 and entry["camera"] == 1


def test_dataclass_from_json_takes_each_default_type():
    spec = dataclass_from_json(
        SyntheticSpec,
        {"num_identities": 3, "tracklet_length_range": [10, 20], "splice_len_range": [2, 4]},
        "spec file",
    )
    assert spec.tracklet_length_range == (10, 20)
    assert spec.splice_len_range == (2, 4)
    cfg = dataclass_from_json(TrainConfig, {"eps": 1, "iters_per_epoch": None}, "config file")
    assert cfg.eps == 1.0 and type(cfg.eps) is float and cfg.iters_per_epoch is None
    cfg = dataclass_from_json(TrainConfig, {"iters_per_epoch": 3}, "config file")
    assert cfg.iters_per_epoch == 3


def test_weights_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    w = rng.normal(size=(6, 4))
    write_weights(w, tmp_path / "w.npy")
    assert np.array_equal(read_weights(tmp_path / "w.npy"), w)
    assert [p.name for p in tmp_path.iterdir()] == ["w.npy"]
