import json

import numpy as np
import pytest

from subtrack.cli import main
from subtrack.model import Tracklet
from subtrack.storage import load_json, read_dataset, write_dataset


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
    assert len(lines) == 8  # header + seven rows
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


@pytest.mark.parametrize("edit,key", [
    pytest.param(_drop_top, "d_raw", id="no-d_raw"),
    pytest.param(_drop_top, "tracklets", id="no-tracklets"),
    pytest.param(_drop_entry, "tracklet_id", id="no-tracklet_id"),
    pytest.param(_drop_entry, "frame_count", id="no-frame_count"),
    pytest.param(_drop_entry, "feature_file", id="no-feature_file"),
    pytest.param(_escape_dir, "outside", id="feature_file-outside"),
])
def test_malformed_manifest_errors_as_json(tmp_path, capsys, edit, key):
    data = tmp_path / "bad"
    (tmp_path / "x.f32").write_bytes(np.zeros((2, 3), dtype="<f4").tobytes())
    write_dataset([Tracklet("t0", np.zeros((2, 3)))], data)
    manifest = load_json(data / "manifest.json")
    edit(manifest, key)
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "o")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CliError"
    assert key in err["message"]
    assert not (tmp_path / "o").exists()
