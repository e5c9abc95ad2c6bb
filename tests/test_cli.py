import contextlib
import csv
import errno
import io
import itertools
import json
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtrack import storage
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


def test_train_outputs_take_the_mode_open_gives(run_dir, tmp_path):
    # 0o666 less the umask, as a plain open() creates a file, not mkstemp's 0600
    with open(tmp_path / "plain", "wb"):
        pass
    expected = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    outputs = sorted(run_dir.iterdir())
    assert {p.name for p in outputs} == {"weights.npy", "reports.jsonl", "labels.json"}
    for path in outputs:
        assert stat.S_IMODE(path.stat().st_mode) == expected, path.name


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


def test_every_cli_artifact_identical_across_processes():
    # two fresh interpreters with different string-hash seeds run every subcommand,
    # and both print the recorded hashes: a change that alters an artifact on purpose
    # re-records the fixture with `python3 tools/output_hashes.py | tail -n +2`
    script = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
    outputs = [subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
               for seed in ("1", "2")]
    assert len(outputs[0].splitlines()) == 13  # the src line, then 12 artifact hashes
    assert outputs[0] == outputs[1]
    recorded = (Path(__file__).parent / "fixtures" / "output_hashes.txt").read_text()
    assert outputs[0].splitlines()[1:] == recorded.splitlines()


def test_train_rerun_without_epochs_drops_the_old_labels(tmp_path, dataset_dir):
    out = tmp_path / "run"
    for epochs in (1, 0):
        config = tmp_path / f"epochs{epochs}.json"
        config.write_text(json.dumps({"dim": 8, "epochs": epochs, "k1": 6, "k2": 2}),
                          encoding="utf-8")
        assert main(["train", "--data", str(dataset_dir), "--config", str(config),
                     "--out", str(out)]) == 0
        assert (out / "labels.json").exists() == (epochs > 0)


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


def test_rows_without_clusters_score_zero_f1(tmp_path):
    # min_samples above the unit count: every run ends with all units OUTLIER
    spec = {"num_identities": 6, "num_cameras": 3, "tracklets_per_identity": 2,
            "raw_dim": 16, "seed": 3}
    cfg = {"dim": 8, "k1": 6, "k2": 2, "partition_stride": 16, "epochs": 2,
           "min_samples": 1000}
    for name, obj in (("spec.json", spec), ("cfg.json", cfg)):
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    data, cfg_path = str(tmp_path / "data"), str(tmp_path / "cfg.json")
    assert main(["generate", "--spec", str(tmp_path / "spec.json"), "--out", data]) == 0
    assert main(["ablate", "--data", data, "--config", cfg_path,
                 "--out", str(tmp_path / "ablate.csv")]) == 0
    assert main(["sweep", "--data", data, "--config", cfg_path, "--param", "K",
                 "--values", "1,2", "--out", str(tmp_path / "sweep.csv")]) == 0
    ablate, sweep = (list(csv.DictReader(io.StringIO((tmp_path / name).read_text())))
                     for name in ("ablate.csv", "sweep.csv"))
    assert [row["pairwise_f1"] for row in ablate + sweep] == ["0"] * 7
    assert [row["incorrect_clusters"] for row in ablate] == ["0"] * 5


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
    # a config file's values, then a sweep value: each broken rule named, in rule order
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"temperature": -1.0, "momentum": 2.0}), encoding="utf-8")
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(bad),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "CliError",
                   "message": "invalid config: temperature > 0; 0 <= momentum <= 1"}
    bad.write_text(json.dumps({"epochs": 1}), encoding="utf-8")
    assert main(["sweep", "--data", str(dataset_dir), "--config", str(bad), "--param", "delta",
                 "--values", "0.5,-1", "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "CliError", "message": "invalid config: filter_factor > 0"}
    assert not (tmp_path / "o").exists()


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


def _nan_frame(manifest, key):
    manifest["tracklets"][0]["feature_file"] = "nan.f32"  # its frame 1 holds a NaN


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
    pytest.param(_keep, "'ghost'", {"ghost": [{"start": 0, "end": 10**6, "source_identity": 1}]},
                 id="splice-ghost-tracklet"),
    pytest.param(_keep, "of 't0' lies outside",
                 {"t0": [{"start": 0, "end": 10**6, "source_identity": 1}]}, id="splice-past-end"),
    pytest.param(_keep, "of 't0' lies outside",
                 {"t0": [{"start": -1, "end": 0, "source_identity": 1}]}, id="splice-negative-start"),
    pytest.param(_keep, "of 't0' lies outside",
                 {"t0": [{"start": 1, "end": 0, "source_identity": 1}]}, id="splice-reversed"),
    pytest.param(_zero_frame, "'t0': frame 1 ", None, id="zero-frame"),
    pytest.param(_nan_frame, "'t0': frames contain non-finite entries", None, id="nan-frame"),
])
def test_malformed_manifest_errors_as_json(tmp_path, capsys, edit, key, splices):
    data = tmp_path / "bad"
    (tmp_path / "x.f32").write_bytes(np.ones((2, 3), dtype="<f4").tobytes())
    write_dataset([Tracklet("t0", np.ones((2, 3)))], data)
    (data / "zero.f32").write_bytes(np.array([[1, 2, 3], [0, 0, 0]], dtype="<f4").tobytes())
    (data / "nan.f32").write_bytes(np.array([[1, 2, 3], [0, np.nan, 3]], dtype="<f4").tobytes())
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


def _valid_run_inputs(root, labeled=True, cameras=2):
    """Two identities seen by ``cameras`` cameras, weights, a split and a labels file;
    with ``labeled`` False the manifest names no identity or camera."""
    rng = np.random.default_rng(0)
    ids = [f"t{i}" for i in range(4)]
    write_dataset([Tracklet(tid, rng.normal(size=(12, 4)), identity=i // 2 if labeled else None,
                            camera=i % cameras if labeled else None)
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
    pytest.param(_stats_argv, "labels.json", {"assignment": [{"tracklet": "t0", "label": -1}]},
                 "label", id="labels-negative-label"),
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


@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_eval_rejects_k_max_below_one(tmp_path, capsys, k_max):
    _valid_run_inputs(tmp_path)
    assert main(_eval_argv(tmp_path) + ["--k-max", k_max]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CliError" and "--k-max" in err["message"]
    assert not (tmp_path / "eval.json").exists()


def _ablate_argv(root):
    return ["ablate", "--data", str(root / "data"), "--out", str(root / "ablate.csv")]


def _sweep_argv(root):
    return ["sweep", "--data", str(root / "data"), "--param", "K", "--values", "1",
            "--out", str(root / "sweep.csv")]


@pytest.mark.parametrize("argv,out,inputs", [
    pytest.param(_eval_argv, "eval.json", {"labeled": False}, id="eval"),
    pytest.param(_stats_argv, "stats.json", {"labeled": False}, id="stats"),
    pytest.param(_ablate_argv, "ablate.csv", {"labeled": False}, id="ablate"),
    pytest.param(_sweep_argv, "sweep.csv", {"labeled": False}, id="sweep"),
    # labeled, but every tracklet is seen by one camera: no query has a valid match
    pytest.param(_ablate_argv, "ablate.csv", {"cameras": 1}, id="ablate-one-camera"),
    pytest.param(_sweep_argv, "sweep.csv", {"cameras": 1}, id="sweep-one-camera"),
])
def test_scoring_commands_need_ground_truth_before_they_run(tmp_path, capsys, argv, out, inputs):
    _valid_run_inputs(tmp_path, **inputs)
    assert main(argv(tmp_path)) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CliError"
    assert err["message"].startswith(argv(tmp_path)[0] + " needs")
    assert "identity" in err["message"] and "camera" in err["message"]
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("argv,out", [
    pytest.param(_ablate_argv, "ablate.csv", id="ablate"),
    pytest.param(_sweep_argv, "sweep.csv", id="sweep"),
])
def test_scoring_commands_need_an_epoch_before_they_run(tmp_path, capsys, argv, out):
    _valid_run_inputs(tmp_path)
    (tmp_path / "zero.json").write_text(json.dumps({"epochs": 0}), encoding="utf-8")
    assert main(argv(tmp_path) + ["--config", str(tmp_path / "zero.json")]) == 1
    err = _one_json_error(capsys)
    assert err["error"] == "CliError"
    assert err["message"].startswith(argv(tmp_path)[0] + " needs epochs >= 1")
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("change", [{"lr": 1e308}, {"lr": float("inf")}, {"epochs": 2, "lr": 1e308},
                                    {"epochs": 2, "weight_decay": 1e308},
                                    {"epochs": 2, "hard_weight": float("inf")}])
def test_a_diverging_train_errors_as_json(tmp_path, capsys, dataset_dir, change):
    # non-finite weights were written, or the next epoch's clustering died with an IndexError
    config = {"dim": 8, "epochs": 1, "batch_size": 8, "k1": 6, "k2": 2, "partition_stride": 16,
              **change}
    (tmp_path / "diverge.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--data", str(dataset_dir), "--config", str(tmp_path / "diverge.json"),
                 "--out", str(tmp_path / "run")]) == 1
    assert _one_json_error(capsys) == {"error": "ValueError",
                                       "message": "training diverged: non-finite encoder weights"}
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def six_identities(tmp_path_factory):
    """A generated set of six identities with 16-dim frames, and a split of all of it."""
    root = tmp_path_factory.mktemp("six")
    (root / "spec.json").write_text(json.dumps({"num_identities": 6, "raw_dim": 16, "seed": 1}),
                                    encoding="utf-8")
    assert main(["generate", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == 0
    ids = [t.id for t in read_dataset(root / "data")[0]]
    (root / "split.json").write_text(json.dumps({"query": ids, "gallery": ids}), encoding="utf-8")
    return root


def test_weights_that_overflow_end_training_as_json(tmp_path, capsys, six_identities):
    # lr 1e308 leaves finite weights, up to 1.0003e308, under which frames encode to NaN or
    # zero vectors: the run is refused, not written
    config = {"dim": 8, "k1": 6, "k2": 2, "epochs": 1, "lr": 1e308}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--data", str(six_identities / "data"), "--config",
                 str(tmp_path / "config.json"), "--out", str(tmp_path / "run")]) == 1
    err = _one_json_error(capsys)
    assert err["error"] == "ValueError" and err["message"].startswith("training diverged")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("largest", [1e300, 1e308])
@pytest.mark.parametrize("command", ["eval", "cluster"])
def test_weights_that_overflow_the_encoding_are_refused(tmp_path, capsys, six_identities,
                                                        command, largest):
    # every frame's encoding overflows: no score from NaN or zero features, and the error
    # names the weights, not the frames or the clustering
    weights = np.random.default_rng(0).normal(size=(16, 8))
    write_weights(weights * (largest / np.abs(weights).max()), tmp_path / "weights.npy")
    data = ["--data", str(six_identities / "data"), "--weights", str(tmp_path / "weights.npy")]
    extra = ["--split", str(six_identities / "split.json")] if command == "eval" else []
    assert main([command, *data, *extra, "--out", str(tmp_path / "out.json")]) == 1
    err = _one_json_error(capsys)
    assert err["error"] == "ValueError" and "encoder weights" in err["message"]
    assert not (tmp_path / "out.json").exists()


def _cancelling_inputs(root):
    """Three tracklets, t0's frames alternating x and -x, so that the mean of its encoded
    frames is zero; weights, a split of all three and a small config."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)
    frames = [np.tile([x, -x], (6, 1)), rng.normal(size=(12, 4)), rng.normal(size=(12, 4))]
    write_dataset([Tracklet(f"t{i}", f, identity=i // 2, camera=i % 2)
                   for i, f in enumerate(frames)], root / "data")
    write_weights(rng.normal(size=(4, 4)), root / "weights.npy")
    ids = ["t0", "t1", "t2"]
    (root / "split.json").write_text(json.dumps({"query": ids, "gallery": ids}), encoding="utf-8")
    config = {"dim": 4, "epochs": 1, "batch_size": 4, "k1": 4, "k2": 2, "partition_stride": 4}
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")


@pytest.mark.parametrize("command,message", [
    # eval ranked t0's NaN feature and exited 0; the others named no tracklet
    ("eval", "tracklet 't0': the mean frame encoding has a zero or non-finite norm"),
    ("train", "tracklet 't0': frame distance is undefined for zero-norm vectors"),
    ("cluster", "tracklet 't0': frame distance is undefined for zero-norm vectors"),
    # ablate's first row, the baseline, neither filters nor partitions
    ("ablate", "tracklet 't0' segment 1: the mean frame encoding has a zero or non-finite norm"),
], ids=["eval", "train", "cluster", "ablate"])
def test_a_tracklet_whose_frames_cancel_is_named_in_the_error(tmp_path, capsys, command, message):
    _cancelling_inputs(tmp_path)
    weights = ["--weights", str(tmp_path / "weights.npy")]
    config = ["--config", str(tmp_path / "config.json")]
    extra = {"eval": [*weights, "--split", str(tmp_path / "split.json")],
             "cluster": [*weights, *config]}.get(command, config)
    assert main([command, "--data", str(tmp_path / "data"), *extra,
                 "--out", str(tmp_path / "out")]) == 1
    assert _one_json_error(capsys) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("switch,mode,refined", [(1, "REACHABLE", {}), (2, "DIRECT", None)])
def test_cluster_without_clusters_writes_refined_by_mode(tmp_path, switch, mode, refined):
    # a REACHABLE state with no clusters has empty refined labels, not the null of DIRECT
    _valid_run_inputs(tmp_path)
    config = {"epochs": 1, "merge_switch_epoch": switch, "min_samples": 1000}
    (tmp_path / "none.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(_cluster_argv(tmp_path) + ["--config", str(tmp_path / "none.json")]) == 0
    payload = load_json(tmp_path / "cluster.json")
    assert payload["mode"] == mode and payload["num_clusters"] == 0
    assert payload["positive_sets"] == {} and payload["refined"] == refined


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


# each array needs over 2 x 10^17 bytes, more than even a 57-bit address space holds,
# yet stays within numpy's size limit, so its allocation fails at once and writes nothing
@pytest.mark.parametrize("argv,payload", [
    pytest.param(lambda r: _small_train_argv(r, config="file.json", out="gen"),
                 {"dim": 4, "epochs": 1, "k1": 3, "k2": 1, "batch_size": 10**15},
                 id="train-batch_size"),
    pytest.param(lambda r: _small_train_argv(r, config="file.json", out="gen"),
                 {"dim": 10**16, "epochs": 1, "k1": 3, "k2": 1}, id="train-dim"),
    pytest.param(_generate_argv, {"raw_dim": 10**17}, id="generate-raw_dim"),
])
def test_oversized_values_error_as_json(tmp_path, capsys, argv, payload):
    _valid_run_inputs(tmp_path)
    (tmp_path / "file.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main(argv(tmp_path)) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"} and err["error"] == "MemoryError"
    assert not (tmp_path / "gen").exists()


def _small_train_argv(root, data="data", config="small.json", out="run"):
    (root / "small.json").write_text(json.dumps({"dim": 4, "epochs": 1, "k1": 3, "k2": 1}),
                                     encoding="utf-8")
    return ["train", "--data", str(root / data), "--config", str(root / config),
            "--out", str(root / out)]


# each case names a directory where a file is read, or a file where a directory is
@pytest.mark.parametrize("argv,out", [
    pytest.param(lambda r: _small_train_argv(r, config="dir"), "run", id="train-config-dir"),
    pytest.param(lambda r: _small_train_argv(r, data="split.json"), "run", id="train-data-file"),
    pytest.param(lambda r: _small_train_argv(r, out="split.json/run"), "split.json/run",
                 id="train-out-under-file"),
    pytest.param(lambda r: _cluster_argv(r)[:3] + ["--weights", str(r / "dir"),
                                                   "--out", str(r / "cluster.json")],
                 "cluster.json", id="cluster-weights-dir"),
    pytest.param(lambda r: ["stats", "--labels", str(r / "dir")] + _stats_argv(r)[3:],
                 "stats.json", id="stats-labels-dir"),
    pytest.param(lambda r: ["generate", "--spec", str(r / "dir"), "--out", str(r / "gen")],
                 "gen", id="generate-spec-dir"),
])
def test_unreadable_paths_error_as_json(tmp_path, capsys, argv, out):
    _valid_run_inputs(tmp_path)
    (tmp_path / "dir").mkdir()
    assert main(argv(tmp_path)) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"}
    assert not (tmp_path / out).exists()


def _save_npz(path, weights):
    with open(path, "wb") as fh:
        np.savez(fh, weights=weights)


def _save_empty(path, weights):
    path.write_bytes(b"")


@pytest.mark.parametrize("argv", [_cluster_argv, _eval_argv], ids=["cluster", "eval"])
@pytest.mark.parametrize("weights,save,key", [
    pytest.param(None, _save_empty, "empty", id="empty"),
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


SMALL_CONFIG = {"dim": 4, "epochs": 1, "k1": 3, "k2": 1}
SMALL_SPEC = {"num_identities": 3, "tracklets_per_identity": 2, "tracklet_length_range": [12, 16],
              "raw_dim": 4, "splice_rate": 1.0, "splice_len_range": [2, 4], "seed": 1}
# each command's argv for an earlier run and for a rerun into the same --out, run in the
# directory that _command_inputs fills; the reruns of generate and train-no-epochs remove
# files that the earlier run wrote (splices.json and two feature files; labels.json)
RERUNS = {
    "generate": ("generate --spec spec.json --out gen", "generate --spec spec2.json --out gen"),
    "train": ("train --data data --config small.json --out run",) * 2,
    "train-no-epochs": ("train --data data --config small.json --out run",
                        "train --data data --config no_epochs.json --out run"),
    "cluster": ("cluster --data data --weights weights.npy --config small.json --out c.json",) * 2,
    "eval": ("eval --data data --weights weights.npy --split split.json --out eval.json",) * 2,
    "stats": ("stats --labels labels.json --data data --out stats.json",) * 2,
    "ablate": ("ablate --data data --config small.json --out ablate.csv",) * 2,
    "sweep": ("sweep --data data --config small.json --param K --values 1,2 --out sweep.csv",) * 2,
}


def _command_inputs(root):
    _valid_run_inputs(root)
    for name, payload in [("small.json", SMALL_CONFIG),
                          ("no_epochs.json", {**SMALL_CONFIG, "epochs": 0}),
                          ("spec.json", SMALL_SPEC),
                          ("spec2.json", {**SMALL_SPEC, "num_identities": 2, "splice_rate": 0.0})]:
        (root / name).write_text(json.dumps(payload), encoding="utf-8")


def _snapshot(root):
    """Each path under ``root``: a file's inode and bytes, or None for a directory. A file that
    a rename replaced has a new inode, even with the same bytes."""
    return {str(p.relative_to(root)): None if p.is_dir() else (p.stat().st_ino, p.read_bytes())
            for p in root.rglob("*")}


class _FullDiskAt:
    """Stands in for ``open``: the n-th file opened for writing takes half its bytes, then fails."""

    def __init__(self, n):
        self.n, self.writes, self.open = n, 0, open

    def __call__(self, file, mode="r", *args, **kwargs):
        fh = self.open(file, mode, *args, **kwargs)
        if set(mode) & set("wxa+"):
            self.writes += 1
            if self.writes == self.n:
                return _HalfWrite(fh)
        return fh


class _HalfWrite:
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _one_json_error(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("command", RERUNS)
def test_a_failed_write_leaves_the_earlier_output_untouched(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    _command_inputs(tmp_path)
    earlier, rerun = (argv.split() for argv in RERUNS[command])
    assert main(earlier) == 0
    before = _snapshot(tmp_path)
    for n in itertools.count(1):
        fault = _FullDiskAt(n)
        with monkeypatch.context() as m:  # os.fdopen opens files through io.open
            m.setattr("builtins.open", fault)
            m.setattr("io.open", fault)
            code = main(rerun)
        if fault.writes < n:  # no n-th write: the rerun went through
            break
        assert code == 1, f"write {n}"
        assert _one_json_error(capsys)["error"] == "OSError"
        assert _snapshot(tmp_path) == before, f"write {n} failed but the output changed"
    assert code == 0 and n > 1
    assert _snapshot(tmp_path) != before


@pytest.mark.parametrize("out", ["new/run", "data/new/run"])  # "data" existed before
def test_a_failed_write_removes_the_out_directories_it_made(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    _command_inputs(tmp_path)
    before = _snapshot(tmp_path)
    fault = _FullDiskAt(1)
    with monkeypatch.context() as m:
        m.setattr("builtins.open", fault)
        m.setattr("io.open", fault)
        assert main(f"train --data data --config small.json --out {out}".split()) == 1
    assert fault.writes == 1
    assert _one_json_error(capsys)["error"] == "OSError"
    assert _snapshot(tmp_path) == before
    assert not (tmp_path / out).parent.exists()


@pytest.mark.parametrize("command,target", [
    ("train", "run/labels.json"),
    ("generate", "gen/id0001_t1.f32"),  # the last of the rerun's feature files
])
def test_an_output_name_that_is_a_directory_leaves_the_earlier_output(tmp_path, monkeypatch,
                                                                      capsys, command, target):
    monkeypatch.chdir(tmp_path)
    _command_inputs(tmp_path)
    earlier, rerun = (argv.split() for argv in RERUNS[command])
    assert main(earlier) == 0
    (tmp_path / target).unlink()
    (tmp_path / target).mkdir()
    before = _snapshot(tmp_path)
    assert main(rerun) == 1
    assert target in _one_json_error(capsys)["message"]
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("command", RERUNS)
def test_every_command_writes_its_output_in_one_write_files_call(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    _command_inputs(tmp_path)
    calls, write_files = [], storage.write_files

    def counted(*args):
        calls.append(args)
        write_files(*args)

    monkeypatch.setattr(storage, "write_files", counted)
    assert main(RERUNS[command][1].split()) == 0
    assert len(calls) == 1


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


NAN, INF = float("nan"), float("inf")
# each spec field's (values inside its rule, values just outside it); an infinite jitter
# keeps the rule but makes non-finite frames, and splicing into a one-frame tracklet
# breaks the rule that joins the two ranges
SPEC_FIELDS = {
    "num_identities": ([1, 2], [0, -1]),
    "num_cameras": ([1, 3], [0]),
    "tracklets_per_identity": ([1, 2], [0]),
    "tracklet_length_range": ([[1, 1], [6, 9]], [[0, 4], [5, 4]]),
    "raw_dim": ([2, 5], [1, 0]),
    "identity_separation": ([0.0, 0.6], [-0.1, NAN]),
    "camera_shift_scale": ([0.0, 0.1], [-0.1, NAN]),
    "splice_rate": ([0.0, 0.5, 1.0], [-0.1, 1.1, NAN]),
    "splice_len_range": ([[1, 2], [1, 5]], [[0, 2], [3, 2]]),
    "jitter_scale": ([0.0, 0.05, INF], [-0.01, NAN]),
    "seed": ([0, 3], [-1]),
}
BROKEN_FIELD = st.sampled_from(sorted(SPEC_FIELDS)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(SPEC_FIELDS[key][1])))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(spec=st.fixed_dictionaries({k: st.sampled_from(v[0]) for k, v in SPEC_FIELDS.items()}),
       broken=st.lists(BROKEN_FIELD, max_size=2))
def test_generate_on_drawn_specs_writes_a_readable_dataset_or_one_json_error(spec, broken):
    spec.update(broken)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["generate", "--spec", str(root / "spec.json"), "--out", str(root / "data")])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            tracklets, _ = read_dataset(root / "data")
            assert len(tracklets) == spec["num_identities"] * spec["tracklets_per_identity"]
        else:
            assert code == 1 and len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert not (root / "data").exists()


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    spec = {"num_identities": 3, "num_cameras": 2, "tracklets_per_identity": 2,
            "tracklet_length_range": [24, 40], "raw_dim": 8, "seed": 5}
    (root / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["generate", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == 0
    return root / "data"


POSITIVE = st.sampled_from([1e-300, 1e-3, 1.0, 1e308, float("inf")])  # what TrainConfig takes


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(epochs=st.integers(1, 2), lr=POSITIVE, weight_decay=st.just(0.0) | POSITIVE,
       hard_weight=st.just(0.0) | POSITIVE, centroid_weight=st.just(0.0) | POSITIVE,
       temperature=POSITIVE)
def test_train_with_extreme_accepted_values_gives_finite_weights_or_one_json_error(
        tiny_dataset, epochs, lr, weight_decay, hard_weight, centroid_weight, temperature):
    # a warning would be a stderr line of its own in a real process, so none may be raised
    config = {"dim": 4, "k1": 4, "k2": 2, "batch_size": 4, "partition_stride": 8,
              "epochs": epochs, "lr": lr, "weight_decay": weight_decay,
              "hard_weight": hard_weight, "centroid_weight": centroid_weight,
              "temperature": temperature}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--data", str(tiny_dataset), "--config",
                         str(root / "config.json"), "--out", str(root / "run")])
        assert caught == []
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            assert np.isfinite(np.load(root / "run" / "weights.npy")).all()
        else:
            assert code == 1 and len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert not (root / "run").exists()
