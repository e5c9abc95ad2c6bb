"""Command-line surface: generate, train, cluster, eval, stats, ablate, sweep."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import storage, synth
from .experiment import final_metrics
from .evaluation import cluster_stats, map_cmc
from .model import LabelState, TrainConfig, validate_config
from .trainer import (
    Encoder,
    PipelineToggles,
    ablation_matrix,
    cluster_epoch,
    inference_features,
    standard_ablation_rows,
    train,
    train_with_toggles,
    TrainResult,
)

SWEEP_PARAMS = {
    "delta": "filter_factor",
    "lambda": "smoothing",
    "l": "partition_stride",
    "K": None,  # handled as a fixed positive-set size
}


class CliError(Exception):
    pass


def _load_config(path) -> TrainConfig:
    overrides = storage.load_json(path) if path else {}
    return _checked(storage.dataclass_from_json(TrainConfig, overrides, "config file"))


def _checked(cfg: TrainConfig) -> TrainConfig:
    problems = validate_config(cfg)
    if problems:
        raise CliError("invalid config: " + "; ".join(problems))
    return cfg


def _read_dataset(path):
    try:
        return storage.read_dataset(path)
    except storage.StorageError as exc:
        raise CliError(str(exc))


def _read_encoder(path, tracklets) -> Encoder:
    weights = storage.read_weights(path)
    if len(weights) != tracklets[0].frames.shape[1]:
        raise CliError(f"weights have {len(weights)} rows, not the dataset's d_raw")
    return Encoder(weights)


def _labels_payload(state: LabelState) -> dict:
    items = []
    for st, y in sorted(zip(state.units, state.labels.tolist())):
        items.append(
            {
                "tracklet": st.parent_id,
                "segment": st.segment_index,
                "start": st.frame_range[0],
                "end": st.frame_range[1],
                "label": y,
            }
        )
    refined = None if state.refined is None else state.refined.tolist()
    return {
        "format_version": storage.FORMAT_VERSION,
        "mode": state.mode,
        "num_clusters": state.num_clusters,
        "assignment": items,
        "positive_sets": {str(y): sorted(p) for y, p in sorted(state.positive_sets.items())},
        "refined": {str(y): r for y, r in enumerate(refined, start=1)} if refined else None,
    }


def _write_reports(result: TrainResult, path) -> None:
    lines = []
    for r in result.reports:
        # timing is deliberately left out so reruns are byte-identical
        payload = {
            "epoch": r.epoch,
            "num_clusters": r.num_clusters,
            "num_outliers": r.num_outliers,
            "mode": r.mode,
            "mean_loss": None if np.isnan(r.mean_loss) else r.mean_loss,
            "filtered_frames": r.filtered_frames,
        }
        lines.append(json.dumps(payload))
    storage._atomic_write(Path(path), ("\n".join(lines) + "\n").encode("utf-8"))


def _run_metrics_row(tracklets, result: TrainResult) -> dict:
    metrics = final_metrics(tracklets, result)
    metrics["filtered_frames_per_epoch"] = ";".join(
        str(r.filtered_frames) for r in result.reports
    )
    return metrics


def cmd_generate(args) -> None:
    spec = storage.load_json(args.spec)
    ds = synth.generate(storage.dataclass_from_json(synth.SyntheticSpec, spec, "spec file"))
    storage.write_synthetic(ds, args.out)


def cmd_train(args) -> None:
    tracklets, _ = _read_dataset(args.data)
    cfg = _load_config(args.config)
    result = train(tracklets, cfg)
    out = Path(args.out)
    storage.write_weights(result.encoder.weights, out / "weights.npy")
    _write_reports(result, out / "reports.jsonl")
    if result.labels is not None:
        storage.dump_json(_labels_payload(result.labels), out / "labels.json")


def cmd_cluster(args) -> None:
    tracklets, _ = _read_dataset(args.data)
    cfg = _load_config(args.config)
    enc = _read_encoder(args.weights, tracklets)
    state = cluster_epoch(enc, tracklets, cfg, epoch=cfg.epochs or 1)[0]
    storage.dump_json(_labels_payload(state), Path(args.out))


def cmd_eval(args) -> None:
    tracklets, _ = _read_dataset(args.data)
    by_id = {t.id: t for t in tracklets}
    split = storage.load_json(args.split)
    sides = []
    for side in ("query", "gallery"):
        ids = storage._field(split, side, "split file", list)
        if not ids:
            raise CliError(f"split {side} is empty")
        try:
            sides.append([by_id[storage._field(ids, i, f"split {side}", str)]
                          for i in range(len(ids))])
        except KeyError as exc:
            raise CliError(f"split references unknown tracklet {exc}")
    query, gallery = sides
    if any(t.identity is None or t.camera is None for t in query + gallery):
        raise CliError("evaluation needs identity and camera labels in the manifest")
    enc = _read_encoder(args.weights, tracklets)
    q = inference_features(enc, query)
    g = inference_features(enc, gallery)
    res = map_cmc(
        q, [(t.identity, t.camera) for t in query],
        g, [(t.identity, t.camera) for t in gallery],
        k_max=args.k_max,
    )
    storage.dump_json(
        {
            "mAP": res.map,
            "cmc": [float(x) for x in res.cmc],
            "skipped_queries": res.skipped_queries,
        },
        Path(args.out),
    )


def cmd_stats(args) -> None:
    tracklets, _ = _read_dataset(args.data)
    by_id = {t.id: t for t in tracklets}
    payload = storage.load_json(args.labels)
    assignment = storage._field(payload, "assignment", "labels file", list)
    if not assignment:
        raise CliError("labels file has an empty assignment")
    pseudo, gt, cams = [], [], []
    for i, item in enumerate(assignment):
        tid = storage._field(item, "tracklet", f"labels record {i}", str)
        parent = by_id.get(tid)
        if parent is None:
            raise CliError(f"labels reference unknown tracklet {tid!r}")
        if parent.identity is None or parent.camera is None:
            raise CliError("stats need identity and camera labels in the manifest")
        pseudo.append(storage._field(item, "label", f"labels record {i}", int))
        gt.append(parent.identity)
        cams.append(parent.camera)
    stats = cluster_stats(pseudo, gt, cams)
    storage.dump_json(
        {
            "correct": stats.correct,
            "cross_camera": stats.cross_camera,
            "incorrect": stats.incorrect,
            "total_clusters": stats.total_clusters,
            "total_identities": stats.total_identities,
        },
        Path(args.out),
    )


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    storage._atomic_write(Path(path), buf.getvalue().encode("utf-8"))


def cmd_ablate(args) -> None:
    tracklets, _ = _read_dataset(args.data)
    cfg = _load_config(args.config)
    header = ["name", "filter", "partition", "merge", "loss",
              "map", "rank1", "pairwise_f1", "incorrect_clusters"]
    toggle_rows = standard_ablation_rows()
    results = ablation_matrix(tracklets, cfg, toggle_rows)
    rows = []
    for toggles in toggle_rows:
        m = final_metrics(tracklets, results[toggles.name])
        rows.append([
            toggles.name, int(toggles.filter_frames), int(toggles.do_partition),
            toggles.merge, toggles.loss,
            format(m["map"], ".17g"), format(m["rank1"], ".17g"),
            format(m["pairwise_f1"], ".17g"), m["incorrect_clusters"],
        ])
    _write_csv(args.out, header, rows)


def cmd_sweep(args) -> None:
    if args.param not in SWEEP_PARAMS:
        raise CliError(f"unknown sweep param {args.param!r}; choose from {sorted(SWEEP_PARAMS)}")
    tracklets, _ = _read_dataset(args.data)
    cfg = _load_config(args.config)
    runs = []  # every value is checked before the first run
    for raw_value in args.values.split(","):
        if args.param == "K":
            k = int(raw_value)
            if k < 1:
                raise CliError(f"sweep K must be >= 1, not {k}")
            runs.append((raw_value, cfg, k))
        else:
            field = SWEEP_PARAMS[args.param]
            value = int(raw_value) if field == "partition_stride" else float(raw_value)
            runs.append((raw_value, _checked(cfg.replace(**{field: value})), None))
    header = ["param", "value", "map", "rank1", "pairwise_f1", "filtered_frames_per_epoch"]
    rows = []
    for raw_value, run_cfg, k in runs:
        result = train_with_toggles(tracklets, run_cfg, PipelineToggles(), fixed_k=k)
        m = _run_metrics_row(tracklets, result)
        rows.append([
            args.param, raw_value,
            format(m["map"], ".17g"), format(m["rank1"], ".17g"),
            format(m["pairwise_f1"], ".17g"), m["filtered_frames_per_epoch"],
        ])
    _write_csv(args.out, header, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subtrack")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the full pipeline")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cluster", help="one-shot filter, partition, cluster, merge")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("eval", help="retrieval metrics on a query/gallery split")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k-max", type=int, default=10)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="cluster-quality statistics for a labels file")
    p.add_argument("--labels", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("ablate", help="run the standard toggle matrix")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sweep one hyperparameter")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (CliError, ValueError, FileNotFoundError, json.JSONDecodeError,
            storage.StorageError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
