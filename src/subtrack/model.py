"""Shared data model: tracklets, sub-tracklets, splice records, label state, configuration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

# Label value for samples left unclustered and excluded from training.
OUTLIER = 0

MODE_DIRECT = "DIRECT"
MODE_REACHABLE = "REACHABLE"


@dataclass(frozen=True)
class Tracklet:
    """A temporally ordered sequence of per-frame feature vectors.

    ``identity`` and ``camera`` are ground truth used only for evaluation and
    statistics; no training-path function reads them. A tracklet is refused when
    it is built if a frame is all zeros or has a non-finite entry.
    """

    id: str
    frames: np.ndarray  # (L, dim), L >= 1, temporal order; float32 as read, else float64
    identity: Optional[int] = None
    camera: Optional[int] = None

    def __post_init__(self):
        # float32 frames (as storage reads them) stay float32: every consumer
        # widens them to float64, exactly, before any arithmetic
        frames = np.asarray(self.frames)
        if frames.dtype != np.float32:
            frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError(f"tracklet {self.id!r}: frames must be a non-empty (L, dim) array")
        if not (nonzero := frames.any(axis=1)).all():
            raise ValueError(f"tracklet {self.id!r}: frame {np.argmin(nonzero)} is all zeros")
        if not np.all(np.isfinite(frames)):
            raise ValueError(f"tracklet {self.id!r}: frames contain non-finite entries")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class SpliceRecord:
    """A synthetic tracklet's spliced segment, one record of ``splices.json``."""

    start: int  # inclusive frame index within the tracklet
    end: int    # inclusive
    source_identity: int


@dataclass(frozen=True, order=True)
class SubTracklet:
    """A contiguous segment of a noise-filtered tracklet.

    ``frame_range`` is an inclusive (start, end) index interval into the
    parent's list of surviving frames, not into the raw tracklet.
    """

    parent_id: str
    segment_index: int  # 1-based ordinal within the parent
    frame_range: tuple[int, int]

    def __post_init__(self):
        start, end = self.frame_range
        if self.segment_index < 1:
            raise ValueError("segment_index must be >= 1")
        if end < start or start < 0:
            raise ValueError(f"bad frame_range {self.frame_range}")


@dataclass(frozen=True, eq=False)
class LabelState:
    """An epoch's pseudo labels, aligned with its units, plus each label's positives.

    ``labels[i]`` is the label of unit ``units[i]``: 1..n or OUTLIER.
    ``positives`` is an (n, n) bool array whose row y - 1 marks the labels
    treated as positives for anchors of label y. In REACHABLE mode
    ``refined[y - 1]`` is label y's merged-component label and the positives
    never cross a component; in DIRECT mode the positives are symmetric instead.
    """

    units: Sequence[SubTracklet]
    labels: np.ndarray  # int64, aligned with units
    positives: np.ndarray  # (n, n) bool
    refined: Optional[np.ndarray] = None  # (n,) int64

    @property
    def mode(self) -> str:
        """REACHABLE exactly when the state carries refined labels, else DIRECT."""
        return MODE_DIRECT if self.refined is None else MODE_REACHABLE

    @property
    def num_clusters(self) -> int:
        return len(self.positives)

    @property
    def num_outliers(self) -> int:
        return int(np.count_nonzero(self.labels == OUTLIER))

    @property
    def assignment(self) -> dict[SubTracklet, int]:
        """Each unit's label keyed by the unit; only the benchmark in ``perfbench`` reads it."""
        return dict(zip(self.units, self.labels.tolist()))

    @cached_property
    def positive_sets(self) -> Mapping[int, frozenset[int]]:
        """A read-only view of ``positives``: each label's positive set. Only perfbench reads it."""
        return MappingProxyType({y: frozenset((np.flatnonzero(row) + 1).tolist())
                                 for y, row in enumerate(self.positives, start=1)})

    def check(self) -> list[str]:
        """Return all violated LabelState invariants (empty when consistent)."""
        positives, n = self.positives, self.num_clusters
        if positives.dtype != bool or positives.shape != (n, n):
            return [f"positives must be an (n, n) bool array, not {positives.dtype} {positives.shape}"]
        if self.refined is not None and self.refined.shape != (n,):
            return [f"refined must have shape ({n},), not {self.refined.shape}"]
        problems = [f"label {y} missing from its own positive set"
                    for y in (np.flatnonzero(~positives.diagonal()) + 1).tolist()]
        if self.labels.size and not 0 <= self.labels.min() <= self.labels.max() <= n:
            problems.append(f"labels outside 0..{n}")
        if self.refined is None:
            problems += [f"asymmetric positives: {other} in P({y}) but not conversely"
                         for y, other in (np.argwhere(positives & ~positives.T) + 1).tolist()]
        else:
            crossing = positives & (self.refined[:, None] != self.refined)
            problems += [f"P({y}) crosses refined-label boundary at {other}"
                         for y, other in (np.argwhere(crossing) + 1).tolist()]
        return problems


@dataclass(frozen=True)
class TrainConfig:
    """Every knob of the pipeline, defaulting to the reference configuration; checked when built."""

    dim: int = 64                    # embedding dimension
    partition_stride: int = 32       # frames per sub-tracklet segment
    frames_per_sample: int = 8       # frames sampled per sub-tracklet during training
    sample_stride: int = 4
    filter_factor: float = 0.7       # noise-filter threshold factor
    eps: float = 0.25                # DBSCAN radius
    min_samples: int = 2
    k1: int = 30                     # reciprocal-neighbor sizes for the Jaccard metric
    k2: int = 6
    smoothing: float = 0.1           # class-smoothing weight of the CSC loss
    temperature: float = 0.05
    momentum: float = 0.1            # memory-bank momentum
    hard_weight: float = 0.5         # weight of the hard-memory loss
    centroid_weight: float = 0.25    # weight of the centroid-memory loss
    batch_size: int = 32
    epochs: int = 150
    iters_per_epoch: Optional[int] = None  # None: ceil(num labeled units / batch_size)
    lr: float = 3.5e-4
    lr_decay_factor: float = 0.1
    lr_decay_period: int = 50
    weight_decay: float = 5e-4
    merge_switch_epoch: int = 51     # first epoch merging all reachable sub-clusters
    rng_seed: int = 1

    def __post_init__(self):
        checks = [
            (self.filter_factor > 0, "filter_factor > 0"),
            (self.eps > 0, "eps > 0"),
            (self.min_samples >= 2, "min_samples >= 2"),
            (0.0 <= self.smoothing <= 1.0, "0 <= smoothing <= 1"),
            (self.temperature > 0, "temperature > 0"),
            (0.0 <= self.momentum <= 1.0, "0 <= momentum <= 1"),
            (self.partition_stride >= 1, "partition_stride >= 1"),
            (self.frames_per_sample >= 1, "frames_per_sample >= 1"),
            (self.sample_stride >= 1, "sample_stride >= 1"),
            (self.dim >= 1, "dim >= 1"),
            (self.k1 > self.k2 >= 1, "k1 > k2 >= 1"),
            (self.batch_size >= 1, "batch_size >= 1"),
            (self.epochs >= 0, "epochs >= 0"),
            (self.iters_per_epoch is None or self.iters_per_epoch >= 1, "iters_per_epoch >= 1"),
            (self.lr > 0, "lr > 0"),
            (0 < self.lr_decay_factor <= 1, "0 < lr_decay_factor <= 1"),
            (self.lr_decay_period >= 1, "lr_decay_period >= 1"),
            (self.weight_decay >= 0, "weight_decay >= 0"),
            (self.merge_switch_epoch >= 1, "merge_switch_epoch >= 1"),
            (self.hard_weight >= 0 and self.centroid_weight >= 0, "loss weights >= 0"),
        ]
        if problems := [rule for ok, rule in checks if not ok]:
            raise ValueError("invalid config: " + "; ".join(problems))

    def replace(self, **kw) -> "TrainConfig":
        return dataclasses.replace(self, **kw)

    def lr_at(self, epoch: int) -> float:
        return self.lr * self.lr_decay_factor ** ((epoch - 1) // self.lr_decay_period)


def default_config(**overrides) -> TrainConfig:
    return TrainConfig(**overrides)
