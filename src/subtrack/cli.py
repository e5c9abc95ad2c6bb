"""Command-line surface: generate, train, cluster, eval, stats, ablate, sweep."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import storage
from .experiment import final_metrics
from .evaluation import cluster_stats, map_cmc
from .model import LabelState, TrainConfig
from .trainer import (
    Encoder,
    cluster_epoch,
    inference_features,
    standard_ablation_rows,
    train,
)

SWEEP_PARAMS = {
    "delta": "filter_factor",
    "lambda": "smoothing",
    "l": "partition_stride",
    "K": None,  # handled as a fixed positive-set size
}


class CliError(Exception):
    pass


def _load_config(path, command: str = "") -> TrainConfig:
    """The config file's TrainConfig; a named ``command`` scores trained runs: epochs >= 1."""
    overrides = storage.load_json(path) if path else {}
    cfg = _checked(storage.dataclass_from_json, TrainConfig, overrides, "config file")
    if command and cfg.epochs < 1:
        raise CliError(f"{command} needs epochs >= 1: it scores each run's final labels")
    return cfg


def _checked(make, *args, **kwargs) -> TrainConfig:
    """The TrainConfig that ``make`` builds; its refusal of an invalid value is a CliError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _read_dataset(path):
    try:
        return storage.read_dataset(path)
    except storage.StorageError as exc:
        raise CliError(str(exc))


def _require_ground_truth(tracklets, command: str) -> None:
    """``command`` scores against identities and cameras: each tracklet needs both."""
    if any(t.identity is None or t.camera is None for t in tracklets):
        raise CliError(f"{command} needs identity and camera labels in the manifest")


def _require_cross_camera_match(tracklets, command: str) -> None:
    """``command`` ranks every tracklet against the rest: some identity needs two cameras."""
    cameras = {}
    for t in tracklets:
        cameras.setdefault(t.identity, set()).add(t.camera)
    if all(len(seen) < 2 for seen in cameras.values()):
        raise CliError(f"{command} needs an identity seen by two cameras: "
                       "no query would have a cross-camera match")


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
        "positive_sets": {str(y): (np.flatnonzero(row) + 1).tolist()
                          for y, row in enumerate(state.positives, start=1)},
        "refined": None if refined is None else {str(y): r for y, r in enumerate(refined, 1)},
    }


def cmd_generate(args) -> None:
    from . import synth  # here only: every other command runs without the generator
    spec = storage.load_json(args.spec)
    dataset = synth.generate(storage.dataclass_from_json(synth.SyntheticSpec, spec, "spec file"))
    storage.write_synthetic(dataset, args.out)


def cmd_train(args) -> None:
    tracklets, _ = _read_dataset(args.data)
    result = train(tracklets, _load_config(args.config))
    lines = []
    for r in result.reports:  # timing is deliberately left out so reruns are byte-identical
        loss = None if np.isnan(r.mean_loss) else r.mean_loss
        payload = {**dataclasses.asdict(r), "mean_loss": loss}
        del payload["seconds"]
        lines.append(json.dumps(payload))
    labels = result.labels  # None when no epoch ran: an earlier run's labels.json is removed
    storage.write_files(args.out, {
        "weights.npy": storage.weights_bytes(result.encoder.weights),
        "reports.jsonl": ("\n".join(lines) + "\n").encode("utf-8"),
        "labels.json": None if labels is None else storage.json_bytes(_labels_payload(labels)),
    })


def cmd_cluster(args) -> None:
    tracklets, _ = _read_dataset(args.data)
    cfg = _load_config(args.config)
    enc = _read_encoder(args.weights, tracklets)
    state = cluster_epoch(enc, tracklets, cfg, epoch=cfg.epochs or 1)[0]
    storage.dump_json(_labels_payload(state), args.out)


def cmd_eval(args) -> None:
    if args.k_max < 1:
        raise CliError(f"--k-max must be >= 1, not {args.k_max}")
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
    _require_ground_truth(query + gallery, "eval")
    enc = _read_encoder(args.weights, tracklets)
    q = inference_features(enc, query)
    g = inference_features(enc, gallery)
    storage.dump_json(map_cmc(q, [(t.identity, t.camera) for t in query],
                              g, [(t.identity, t.camera) for t in gallery],
                              k_max=args.k_max), args.out)


def cmd_stats(args) -> None:
    tracklets, _ = _read_dataset(args.data)
    by_id = {t.id: t for t in tracklets}
    payload = storage.load_json(args.labels)
    assignment = storage._field(payload, "assignment", "labels file", list)
    if not assignment:
        raise CliError("labels file has an empty assignment")
    pseudo, parents = [], []
    for i, item in enumerate(assignment):
        tid = storage._field(item, "tracklet", f"labels record {i}", str)
        if tid not in by_id:
            raise CliError(f"labels reference unknown tracklet {tid!r}")
        label = storage._field(item, "label", f"labels record {i}", int)
        if label < 0:
            raise CliError(f"labels record {i} has label {label}, not >= 0 (0 is OUTLIER)")
        pseudo.append(label)
        parents.append(by_id[tid])
    _require_ground_truth(parents, "stats")
    storage.dump_json(cluster_stats(pseudo, [t.identity for t in parents],
                                    [t.camera for t in parents]), args.out)


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    path = Path(path)
    storage.write_files(path.parent, {path.name: buf.getvalue().encode("utf-8")})


def cmd_ablate(args) -> None:
    tracklets, _ = _read_dataset(args.data)
    _require_ground_truth(tracklets, "ablate")
    _require_cross_camera_match(tracklets, "ablate")
    cfg = _load_config(args.config, "ablate")
    header = ["name", "filter", "partition", "merge", "loss",
              "map", "rank1", "pairwise_f1", "incorrect_clusters"]
    rows = []
    for toggles in standard_ablation_rows():
        m = final_metrics(tracklets, train(tracklets, cfg, toggles))
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
    _require_ground_truth(tracklets, "sweep")
    _require_cross_camera_match(tracklets, "sweep")
    cfg = _load_config(args.config, "sweep")
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
            runs.append((raw_value, _checked(cfg.replace, **{field: value}), None))
    header = ["param", "value", "map", "rank1", "pairwise_f1", "filtered_frames_per_epoch"]
    rows = []
    for raw_value, run_cfg, k in runs:
        result = train(tracklets, run_cfg, fixed_k=k)
        m = final_metrics(tracklets, result)
        rows.append([
            args.param, raw_value,
            format(m["map"], ".17g"), format(m["rank1"], ".17g"),
            format(m["pairwise_f1"], ".17g"),
            ";".join(str(r.filtered_frames) for r in result.reports),
        ])
    _write_csv(args.out, header, rows)


# (command, handler, help, flags): --config is optional, --k-max an int, every other flag required
COMMANDS = [
    ("generate", cmd_generate, "generate a synthetic dataset", "--spec --out"),
    ("train", cmd_train, "train the full pipeline", "--data --config --out"),
    ("cluster", cmd_cluster, "one-shot filter, partition, cluster, merge",
     "--data --weights --config --out"),
    ("eval", cmd_eval, "retrieval metrics on a query/gallery split",
     "--data --weights --split --out --k-max"),
    ("stats", cmd_stats, "cluster-quality statistics for a labels file", "--labels --data --out"),
    ("ablate", cmd_ablate, "run the standard toggle matrix", "--data --config --out"),
    ("sweep", cmd_sweep, "sweep one hyperparameter", "--data --config --param --values --out"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subtrack")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, flags in COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(flag, **({"type": int, "default": 10} if flag == "--k-max"
                                    else {"required": flag != "--config"}))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # no warning lines: stderr holds one JSON error or nothing
            args.func(args)
    except (CliError, ValueError, OSError, MemoryError, storage.StorageError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
