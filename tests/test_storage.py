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
    write_files,
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
    frames = np.ones((10, 64), dtype=np.float32)
    write_dataset([Tracklet("x", frames)], tmp_path)
    assert (tmp_path / "x.f32").stat().st_size == 2560


def test_size_mismatch_names_tracklet(tmp_path):
    write_dataset([Tracklet("broken", np.ones((3, 4)))], tmp_path)
    manifest = load_json(tmp_path / "manifest.json")
    manifest["tracklets"][0]["frame_count"] = 99
    dump_json(manifest, tmp_path / "manifest.json")
    with pytest.raises(StorageError, match="broken"):
        read_dataset(tmp_path)


def test_all_zero_frame_names_tracklet_and_frame(tmp_path):
    # Tracklet refuses the frame when read_dataset builds it; the reader re-raises its message
    write_dataset([Tracklet("dark", np.ones((4, 3)))], tmp_path)
    frames = np.ones((4, 3), dtype="<f4")
    frames[2] = 0.0
    (tmp_path / "dark.f32").write_bytes(frames.tobytes())
    with pytest.raises(StorageError, match="^tracklet 'dark': frame 2 is all zeros$"):
        read_dataset(tmp_path)


def test_missing_manifest(tmp_path):
    with pytest.raises(StorageError, match="manifest"):
        read_dataset(tmp_path)


def test_malformed_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(StorageError, match="malformed"):
        read_dataset(tmp_path)


def test_missing_feature_file(tmp_path):
    write_dataset([Tracklet("gone", np.ones((2, 3)))], tmp_path)
    (tmp_path / "gone.f32").unlink()
    with pytest.raises(StorageError, match="gone"):
        read_dataset(tmp_path)


def test_duplicate_ids_rejected(tmp_path):
    dup = [Tracklet("d", np.ones((1, 2))), Tracklet("d", np.ones((1, 2)))]
    with pytest.raises(StorageError, match="unique"):
        write_dataset(dup, tmp_path)


def test_write_dataset_rejects_ids_that_are_not_file_names(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(StorageError, match="not a file name"):
        write_dataset([Tracklet("ok", np.ones((1, 2))), Tracklet("../escaped", np.ones((1, 2)))],
                      out)
    assert not (tmp_path / "escaped.f32").exists()
    assert not out.exists()


def test_write_dataset_refuses_no_tracklets(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(StorageError, match="no tracklets to write"):
        write_dataset([], out)
    assert not out.exists()


def test_write_dataset_checks_every_tracklet_before_it_writes(tmp_path):
    with pytest.raises(StorageError, match="dimension mismatch"):
        write_dataset([Tracklet("a", np.ones((2, 4))), Tracklet("b", np.ones((2, 5)))], tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("data", [b"d", None])
def test_write_files_refuses_a_directory_before_it_writes(tmp_path, data):
    (tmp_path / "d").mkdir()
    (tmp_path / "old").write_bytes(b"old")
    with pytest.raises(IsADirectoryError, match="d is a directory"):
        write_files(tmp_path, {"new": b"new", "old": None, "d": data})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "old"]


def test_synthetic_round_trip_with_splices(tmp_path):
    spec = SyntheticSpec(
        num_identities=4,
        tracklets_per_identity=2,
        tracklet_length_range=(40, 60),
        splice_rate=0.8,
        splice_len_range=(8, 12),
        seed=5,
    )
    generated, splice_log = generate(spec)
    assert splice_log  # the rate makes at least one splice overwhelmingly likely
    write_synthetic((generated, splice_log), tmp_path)
    tracklets, splices = read_dataset(tmp_path)
    assert [(t.id, t.identity, t.camera) for t in tracklets] == \
        [(t.id, t.identity, t.camera) for t in generated]
    for got, made in zip(tracklets, generated):
        assert got.frames.dtype == np.float32
        assert np.array_equal(got.frames, made.frames.astype(np.float32))
    assert splices == splice_log
    assert all(isinstance(r, SpliceRecord) for recs in splices.values() for r in recs)


@pytest.mark.parametrize("splice_log,message", [
    pytest.param({"ghost": [SpliceRecord(0, 1, 1)]}, "names tracklet 'ghost'", id="ghost"),
    pytest.param({"t0": [SpliceRecord(-1, 1, 1)]}, "record 0 of 't0' lies outside",
                 id="negative-start"),
    pytest.param({"t0": [SpliceRecord(2, 1, 1)]}, "record 0 of 't0' lies outside", id="reversed"),
    pytest.param({"t0": [SpliceRecord(0, 1, 1), SpliceRecord(3, 4, 1)]},
                 "record 1 of 't0' lies outside", id="end-at-frame-count"),
    pytest.param({"t0": [SpliceRecord(0, 10**6, 1)]}, "record 0 of 't0' lies outside",
                 id="past-end"),
])
def test_write_dataset_refuses_a_splice_record_outside_its_tracklet(tmp_path, splice_log, message):
    out = tmp_path / "out"
    with pytest.raises(StorageError, match=message):
        write_dataset([Tracklet("t0", np.ones((4, 3)))], out, splice_log=splice_log)
    assert not out.exists()
    write_dataset([Tracklet("t0", np.ones((4, 3)))], out, splice_log={"t0": [SpliceRecord(0, 3, 1)]})
    assert read_dataset(out)[1] == {"t0": [SpliceRecord(0, 3, 1)]}


def test_rewrite_without_splices_drops_the_old_splice_log(tmp_path):
    spec = {"num_identities": 3, "tracklets_per_identity": 2, "tracklet_length_range": (40, 60),
            "splice_len_range": (8, 12), "seed": 5}
    write_synthetic(generate(SyntheticSpec(**spec, splice_rate=1.0)), tmp_path)
    assert read_dataset(tmp_path)[1]
    write_synthetic(generate(SyntheticSpec(**spec, splice_rate=0.0)), tmp_path)
    assert read_dataset(tmp_path)[1] == {}
    assert not (tmp_path / "splices.json").exists()


def test_rewrite_drops_the_old_feature_files(tmp_path):
    spec = {"num_identities": 4, "tracklets_per_identity": 2, "tracklet_length_range": (20, 30),
            "seed": 5}
    write_synthetic(generate(SyntheticSpec(**spec)), tmp_path)
    (tmp_path / "notes.f32").write_bytes(b"kept")  # not listed by any manifest
    write_synthetic(generate(SyntheticSpec(**{**spec, "num_identities": 2})), tmp_path)
    listed = {e["feature_file"] for e in load_json(tmp_path / "manifest.json")["tracklets"]}
    assert len(listed) == 4
    assert {p.name for p in tmp_path.glob("*.f32")} == listed | {"notes.f32"}
    assert len(read_dataset(tmp_path)[0]) == 4


def test_rewrite_over_a_manifest_naming_other_files_deletes_none(tmp_path):
    (tmp_path / "keep").mkdir()
    for name in ("x.f32", "keep/y.f32", "z.txt"):
        (tmp_path / name).write_bytes(b"")
    dump_json({"tracklets": [{"feature_file": n} for n in ("../x.f32", "keep/y.f32", "z.txt")]},
              tmp_path / "manifest.json")
    write_dataset([Tracklet("a", np.ones((2, 3), dtype=np.float32))], tmp_path)
    assert all((tmp_path / n).exists() for n in ("x.f32", "keep/y.f32", "z.txt", "a.f32"))
    (tmp_path / "manifest.json").write_text("{not json")
    write_dataset([Tracklet("b", np.ones((2, 3), dtype=np.float32))], tmp_path)
    assert (tmp_path / "a.f32").exists()


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
    # a write that fails at the final rename leaves neither target nor temp file behind,
    # nor the directory that it made
    monkeypatch.setattr("subtrack.storage.os.replace", _failing_replace)
    for writer, payload in writers:
        out = tmp_path / f"{writer.__name__}_failed"
        with pytest.raises(OSError):
            writer(payload, out / "out")
        assert not out.exists()


def _failing_replace(src, dst):
    raise OSError("simulated rename failure")


def test_manifest_shape(tmp_path):
    write_dataset([Tracklet("t0", np.ones((2, 3)), identity=7, camera=1)], tmp_path)
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
