import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtrack.cli import main
from subtrack.model import Tracklet
from subtrack.storage import load_json, read_dataset, write_dataset, write_weights


@pytest.fixture
def spec_file(tmp_path):
    spec = {
        "num_identities": 4,
        "num_cameras": 2,
        "tracklets_per_identity": 2,
        "tracklet_length_range": [40, 60],
        "raw_dim": 16,
        "identity_separation": 0.9,
        "splice_rate": 0.3,
        "splice_len_range": [8, 12],
        "seed": 11,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "dim": 8,
        "epochs": 2,
        "batch_size": 8,
        "k1": 6,
        "k2": 2,
        "partition_stride": 16,
        "merge_switch_epoch": 2,
        "rng_seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture
def dataset_dir(tmp_path, spec_file):
    out = tmp_path / "data"
    assert main(["generate", "--spec", str(spec_file), "--out", str(out)]) == 0
    return out


@pytest.fixture
def run_dir(tmp_path, dataset_dir, config_file):
    out = tmp_path / "run"
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_file),
        "--out", str(out),
    ])
    assert code == 0
    return out


def test_generate_writes_loadable_dataset(dataset_dir):
    tracklets, splices = read_dataset(dataset_dir)
    assert len(tracklets) == 8
    assert all(t.identity is not None and t.camera is not None for t in tracklets)
    assert isinstance(splices, dict)


def test_train_artifacts(run_dir):
    weights = np.load(run_dir / "weights.npy")
    assert weights.shape == (16, 8)
    labels = load_json(run_dir / "labels.json")
    assert labels["num_clusters"] >= 1
    assert {item["tracklet"] for item in labels["assignment"]}
    lines = (run_dir / "reports.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["epoch"] == 1 and "seconds" not in first


def test_train_rerun_byte_identical_reports(tmp_path, dataset_dir, config_file):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main([
            "train", "--data", str(dataset_dir), "--config", str(config_file),
            "--out", str(out),
        ]) == 0
        outs.append(out)
    a = (outs[0] / "reports.jsonl").read_bytes()
    b = (outs[1] / "reports.jsonl").read_bytes()
    assert a == b


def test_cluster_subcommand(tmp_path, dataset_dir, config_file, run_dir):
    out = tmp_path / "labels2.json"
    code = main([
        "cluster", "--data", str(dataset_dir), "--weights", str(run_dir / "weights.npy"),
        "--config", str(config_file), "--out", str(out),
    ])
    assert code == 0
    payload = load_json(out)
    assert payload["mode"] in ("DIRECT", "REACHABLE")
    assert payload["assignment"]


def test_eval_subcommand(tmp_path, dataset_dir, config_file, run_dir):
    tracklets, _ = read_dataset(dataset_dir)
    ids = [t.id for t in tracklets]
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"query": ids, "gallery": ids}), encoding="utf-8")
    out = tmp_path / "eval.json"
    code = main([
        "eval", "--data", str(dataset_dir), "--weights", str(run_dir / "weights.npy"),
        "--split", str(split), "--out", str(out), "--k-max", "5",
    ])
    assert code == 0
    payload = load_json(out)
    assert 0.0 <= payload["mAP"] <= 1.0
    assert len(payload["cmc"]) == 5
    assert payload["cmc"] == sorted(payload["cmc"])


def test_stats_subcommand(tmp_path, dataset_dir, run_dir):
    out = tmp_path / "stats.json"
    code = main([
        "stats", "--labels", str(run_dir / "labels.json"),
        "--data", str(dataset_dir), "--out", str(out),
    ])
    assert code == 0
    payload = load_json(out)
    assert payload["total_clusters"] == payload["correct"] + payload["incorrect"]
    assert payload["total_identities"] == 4


def test_ablate_subcommand(tmp_path, dataset_dir, config_file):
    out = tmp_path / "ablation.csv"
    code = main([
        "ablate", "--data", str(dataset_dir), "--config", str(config_file),
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("name,filter,partition,merge,loss,map")
    assert len(lines) == 6  # header + five rows
    names = [line.split(",")[0] for line in lines[1:]]
    assert names[0] == "baseline" and names[-1] == "full"


@pytest.mark.parametrize("param,values", [
    ("delta", "0.5,0.9"),
    ("lambda", "0.0,0.2"),
    ("l", "16,24"),
    ("K", "1,2"),
])
def test_sweep_subcommand(tmp_path, dataset_dir, config_file, param, values):
    out = tmp_path / f"sweep_{param}.csv"
    code = main([
        "sweep", "--data", str(dataset_dir), "--config", str(config_file),
        "--param", param, "--values", values, "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith(f"{param},") for line in lines[1:])


def test_unknown_sweep_param_errors(tmp_path, dataset_dir, config_file, capsys):
    code = main([
        "sweep", "--data", str(dataset_dir), "--config", str(config_file),
        "--param", "bogus", "--values", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CliError"
    assert "bogus" in err["message"]


@pytest.mark.parametrize("param,value,key", [
    ("lambda", "2.0", "smoothing"),
    ("K", "-1", "K"),
    ("K", "0", "K"),
])
def test_invalid_sweep_value_errors(tmp_path, dataset_dir, config_file, capsys, param, value, key):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--data", str(dataset_dir), "--config", str(config_file),
        "--param", param, "--values", value, "--out", str(out),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CliError"
    assert key in err["message"]
    assert not out.exists()


def test_missing_dataset_errors_as_json(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert set(err) == {"error", "message"}


def test_bad_config_field_errors(tmp_path, dataset_dir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 1}), encoding="utf-8")
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(bad),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "not_a_field" in err["message"]


def test_invalid_config_value_errors(tmp_path, dataset_dir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"temperature": -1.0}), encoding="utf-8")
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(bad),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "temperature" in err["message"]


def _drop_top(manifest, key):
    del manifest[key]


def _drop_entry(manifest, key):
    del manifest["tracklets"][0][key]


def _escape_dir(manifest, key):
    manifest["tracklets"][0]["feature_file"] = "../x.f32"


def _retype(value):
    def edit(manifest, key):
        (manifest if key in manifest else manifest["tracklets"][0])[key] = value
    return edit


def _keep(manifest, key):
    pass


def _zero_frame(manifest, key):
    manifest["tracklets"][0]["feature_file"] = "zero.f32"  # its frame 1 is all zeros


@pytest.mark.parametrize("edit,key,splices", [
    pytest.param(_drop_top, "d_raw", None, id="no-d_raw"),
    pytest.param(_drop_top, "tracklets", None, id="no-tracklets"),
    pytest.param(_retype([]), "tracklets", None, id="empty-tracklets"),
    pytest.param(_drop_entry, "tracklet_id", None, id="no-tracklet_id"),
    pytest.param(_drop_entry, "frame_count", None, id="no-frame_count"),
    pytest.param(_drop_entry, "feature_file", None, id="no-feature_file"),
    pytest.param(_escape_dir, "outside", None, id="feature_file-outside"),
    pytest.param(_retype(2.0), "frame_count", None, id="float-frame_count"),
    pytest.param(_retype("3"), "d_raw", None, id="string-d_raw"),
    pytest.param(_retype(True), "frame_count", None, id="bool-frame_count"),
    pytest.param(_retype({"a": 1}), "identity", None, id="dict-identity"),
    pytest.param(_retype(True), "camera", None, id="bool-camera"),
    pytest.param(_retype(1.5), "identity", None, id="float-identity"),
    pytest.param(_keep, "end", {"t0": [{"start": 0, "source_identity": 1}]},
                 id="splice-no-end"),
    pytest.param(_keep, "splices", [{"start": 0, "end": 1, "source_identity": 1}],
                 id="splices-list"),
    pytest.param(_zero_frame, "'t0': frame 1 ", None, id="zero-frame"),
])
def test_malformed_manifest_errors_as_json(tmp_path, capsys, edit, key, splices):
    data = tmp_path / "bad"
    (tmp_path / "x.f32").write_bytes(np.ones((2, 3), dtype="<f4").tobytes())
    write_dataset([Tracklet("t0", np.ones((2, 3)))], data)
    (data / "zero.f32").write_bytes(np.array([[1, 2, 3], [0, 0, 0]], dtype="<f4").tobytes())
    manifest = load_json(data / "manifest.json")
    edit(manifest, key)
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    if splices is not None:
        (data / "splices.json").write_text(json.dumps(splices), encoding="utf-8")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "o")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CliError"
    assert key in err["message"]
    assert not (tmp_path / "o").exists()


def _valid_run_inputs(root):
    """Two identities seen by two cameras, weights, a split and a labels file."""
    rng = np.random.default_rng(0)
    ids = [f"t{i}" for i in range(4)]
    write_dataset([Tracklet(tid, rng.normal(size=(12, 4)), identity=i // 2, camera=i % 2)
                   for i, tid in enumerate(ids)], root / "data")
    write_weights(rng.normal(size=(4, 4)), root / "weights.npy")
    (root / "split.json").write_text(json.dumps({"query": ids, "gallery": ids}), encoding="utf-8")
    labels = {"assignment": [{"tracklet": "t0", "label": 1}, {"tracklet": "t1", "label": 2}]}
    (root / "labels.json").write_text(json.dumps(labels), encoding="utf-8")


def _eval_argv(root):
    return ["eval", "--data", str(root / "data"), "--weights", str(root / "weights.npy"),
            "--split", str(root / "split.json"), "--out", str(root / "eval.json")]


def _stats_argv(root):
    return ["stats", "--labels", str(root / "labels.json"), "--data", str(root / "data"),
            "--out", str(root / "stats.json")]


@pytest.mark.parametrize("argv,file,payload,key", [
    pytest.param(_stats_argv, "labels.json", {"mode": "DIRECT"}, "assignment",
                 id="labels-no-assignment"),
    pytest.param(_stats_argv, "labels.json", {"assignment": {"t0": 1}}, "assignment",
                 id="labels-assignment-dict"),
    pytest.param(_stats_argv, "labels.json", {"assignment": [{"tracklet": 0, "label": 1}]},
                 "tracklet", id="labels-int-tracklet"),
    pytest.param(_stats_argv, "labels.json", {"assignment": [{"tracklet": "t0"}]}, "label",
                 id="labels-no-label"),
    pytest.param(_stats_argv, "labels.json", {"assignment": [{"tracklet": "t0", "label": True}]},
                 "label", id="labels-bool-label"),
    pytest.param(_stats_argv, "labels.json", {"assignment": []}, "assignment",
                 id="labels-empty-assignment"),
    pytest.param(_eval_argv, "split.json", ["t0", "t1"], "query", id="split-list"),
    pytest.param(_eval_argv, "split.json", {"gallery": ["t0"]}, "query", id="split-no-query"),
    pytest.param(_eval_argv, "split.json", {"query": ["t0"], "gallery": "t0"}, "gallery",
                 id="split-gallery-string"),
    pytest.param(_eval_argv, "split.json", {"query": [{"id": "t0"}], "gallery": ["t0"]}, "query",
                 id="split-dict-id"),
    pytest.param(_eval_argv, "split.json", {"query": [], "gallery": ["t0"]}, "query",
                 id="split-empty-query"),
    pytest.param(_eval_argv, "split.json", {"query": ["t0"], "gallery": []}, "gallery",
                 id="split-empty-gallery"),
])
def test_malformed_split_and_labels_error_as_json(tmp_path, capsys, argv, file, payload, key):
    _valid_run_inputs(tmp_path)
    assert main(argv(tmp_path)) == 0
    capsys.readouterr()
    (tmp_path / file).write_text(json.dumps(payload), encoding="utf-8")
    assert main(argv(tmp_path)) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"}
    assert key in err["message"]


def _cluster_argv(root):
    return ["cluster", "--data", str(root / "data"), "--weights", str(root / "weights.npy"),
            "--out", str(root / "cluster.json")]


def test_cluster_on_empty_manifest_errors_as_json(tmp_path, capsys):
    _valid_run_inputs(tmp_path)
    manifest = {"format_version": 1, "d_raw": 4, "tracklets": []}
    (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(_cluster_argv(tmp_path)) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CliError" and "tracklets" in err["message"]
    assert not (tmp_path / "cluster.json").exists()


def _generate_argv(root):
    return ["generate", "--spec", str(root / "file.json"), "--out", str(root / "gen")]


def _cluster_config_argv(root):
    return _cluster_argv(root)[:-2] + ["--config", str(root / "file.json"), "--out",
                                       str(root / "gen")]


@pytest.mark.parametrize("argv,payload,key", [
    pytest.param(_cluster_config_argv, [], "JSON object", id="config-list"),
    pytest.param(_cluster_config_argv, None, "JSON object", id="config-null"),
    pytest.param(_cluster_config_argv, {"dim": "64"}, "dim", id="config-str-int"),
    pytest.param(_cluster_config_argv, {"epochs": 2.5}, "epochs", id="config-float-epochs"),
    pytest.param(_cluster_config_argv, {"batch_size": 2.0}, "batch_size", id="config-float-batch"),
    pytest.param(_cluster_config_argv, {"rng_seed": 1.5}, "rng_seed", id="config-float-seed"),
    pytest.param(_cluster_config_argv, {"k1": 30.5}, "k1", id="config-float-k1"),
    pytest.param(_cluster_config_argv, {"dim": True}, "dim", id="config-bool-int"),
    pytest.param(_cluster_config_argv, {"eps": True}, "eps", id="config-bool-float"),
    pytest.param(_cluster_config_argv, {"iters_per_epoch": 2.0}, "iters_per_epoch",
                 id="config-float-iters"),
    pytest.param(_generate_argv, {"bogus": 1}, "bogus", id="spec-unknown-field"),
    pytest.param(_generate_argv, {"num_identities": "4"}, "num_identities", id="spec-str-int"),
    pytest.param(_generate_argv, {"tracklet_length_range": 5}, "tracklet_length_range",
                 id="spec-int-range"),
    pytest.param(_generate_argv, {"splice_len_range": [8, 12, 16]}, "splice_len_range",
                 id="spec-long-range"),
    pytest.param(_generate_argv, {"splice_len_range": [8.0, 12]}, "splice_len_range",
                 id="spec-float-range"),
    pytest.param(_generate_argv, [], "JSON object", id="spec-list"),
])
def test_malformed_config_and_spec_files_error_as_json(tmp_path, capsys, argv, payload, key):
    _valid_run_inputs(tmp_path)
    (tmp_path / "file.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main(argv(tmp_path)) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"} and key in err["message"]
    assert not (tmp_path / "gen").exists()


def _save_npz(path, weights):
    with open(path, "wb") as fh:
        np.savez(fh, weights=weights)


@pytest.mark.parametrize("argv", [_cluster_argv, _eval_argv], ids=["cluster", "eval"])
@pytest.mark.parametrize("weights,save,key", [
    pytest.param(np.full((4, 4), np.nan), np.save, "NaN", id="nan"),
    pytest.param(np.tile([np.inf, 1.0], (4, 2)), np.save, "infinite", id="inf"),
    pytest.param(np.ones((3, 4)), np.save, "d_raw", id="row-count"),
    pytest.param(np.ones(4), np.save, "2-D", id="one-dimensional"),
    pytest.param(np.ones((4, 4), dtype=np.int64), np.save, "float", id="int-dtype"),
    pytest.param(np.ones((4, 4)), _save_npz, ".npy", id="npz"),
])
def test_malformed_weights_error_as_json(tmp_path, capsys, argv, weights, save, key):
    _valid_run_inputs(tmp_path)
    out = Path(argv(tmp_path)[-1])
    assert main(argv(tmp_path)) == 0
    out.unlink()
    capsys.readouterr()
    save(tmp_path / "weights.npy", weights)
    assert main(argv(tmp_path)) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"}
    assert key in err["message"]
    assert not out.exists()


KEEP, DROP, SET = "keep", "drop", "set"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=4,
)
# (tag, value): mostly keep the field, else drop it or set it to any JSON value
FIELD = st.sampled_from([KEEP] * 6 + [DROP, SET]).flatmap(
    lambda tag: JSON_VALUES.map(lambda v: (SET, v)) if tag == SET else st.just((tag, None))
)
ENTRY_KEYS = ("tracklet_id", "frame_count", "feature_file", "identity", "camera")
SPLICE_KEYS = ("start", "end", "source_identity")


def _apply(obj, key, change):
    tag, value = change
    if tag == DROP:
        obj.pop(key, None)
    elif tag == SET:
        obj[key] = value


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(
    top=st.fixed_dictionaries({k: FIELD for k in ("d_raw", "tracklets")}),
    entry=st.fixed_dictionaries({k: FIELD for k in ENTRY_KEYS}),
    record=st.fixed_dictionaries({k: FIELD for k in SPLICE_KEYS}),
    splice_file=FIELD,
)
def test_train_on_fuzzed_inputs_succeeds_or_errors_as_json(top, entry, record, splice_file):
    # train, then eval and stats with fixed valid weights, split and labels
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _valid_run_inputs(root)
        data = root / "data"
        config = root / "config.json"
        config.write_text(json.dumps({"dim": 4, "epochs": 1, "batch_size": 4,
                                      "partition_stride": 4}), encoding="utf-8")
        manifest = load_json(data / "manifest.json")
        for key, change in entry.items():
            _apply(manifest["tracklets"][0], key, change)
        for key, change in top.items():
            _apply(manifest, key, change)
        (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        splices = {"t0": [{"start": 0, "end": 3, "source_identity": 1}]}
        for key, change in record.items():
            _apply(splices["t0"][0], key, change)
        if splice_file[0] != DROP:
            payload = splices if splice_file[0] == KEEP else splice_file[1]
            (data / "splices.json").write_text(json.dumps(payload), encoding="utf-8")
        train = ["train", "--data", str(data), "--config", str(config), "--out", str(root / "run")]
        for argv in (train, _eval_argv(root), _stats_argv(root)):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            lines = err.getvalue().splitlines()
            if code == 0:
                assert lines == []
            else:
                assert code == 1 and len(lines) == 1
                assert set(json.loads(lines[0])) == {"error", "message"}
