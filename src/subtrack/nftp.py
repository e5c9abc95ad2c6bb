"""Noise-filtered tracklet partition.

Per tracklet: average the frame features into a center, drop frames whose
squared cosine deviation from the center exceeds an adaptive threshold, then
split the survivors into fixed-stride segments (the trailing remainder is
absorbed into the last full segment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import SubTracklet, TrainConfig


@dataclass(frozen=True)
class FilteredTracklet:
    parent_id: str
    surviving_indices: tuple[int, ...]
    filtered_indices: tuple[int, ...]
    threshold: float


def center_feature(frames: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the frame features; deliberately not renormalized."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("center_feature needs a non-empty (L, dim) array")
    return frames.mean(axis=0)


def frame_distances(frames: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared cosine deviation (1 - cos(f, center))**2 of each frame row f."""
    frames = np.asarray(frames, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    norms = np.linalg.norm(frames, axis=1)
    nc = np.linalg.norm(center)
    if nc == 0.0 or np.any(norms == 0.0):
        raise ValueError("frame distance is undefined for zero-norm vectors")
    cos = (frames @ center) / (norms * nc)
    return (1.0 - cos) ** 2


def noise_filter(frames: np.ndarray, filter_factor: float) -> FilteredTracklet:
    """Drop frames whose center deviation strictly exceeds the adaptive threshold.

    The threshold is the mean deviation scaled by 1/filter_factor, so larger
    factors filter more aggressively.
    """
    if filter_factor <= 0:
        raise ValueError("filter_factor must be > 0")
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[0] == 0:
        raise ValueError("noise_filter needs a non-empty tracklet")
    center = center_feature(frames)
    dist = frame_distances(frames, center)
    threshold = float(dist.sum() / (frames.shape[0] * filter_factor))
    keep = dist <= threshold
    if not keep.any():
        # Degenerate under floating-point noise: keep the frame closest to the
        # center so the partition below always has input.
        keep = np.zeros_like(keep)
        keep[int(np.argmin(dist))] = True
    surviving = tuple(int(i) for i in np.flatnonzero(keep))
    filtered = tuple(int(i) for i in np.flatnonzero(~keep))
    return FilteredTracklet("", surviving, filtered, threshold)


def keep_all(parent_id: str, length: int) -> FilteredTracklet:
    """A FilteredTracklet that filters nothing (partition-only path)."""
    return FilteredTracklet(parent_id, tuple(range(length)), (), float("inf"))


def partition(ft: FilteredTracklet, stride: int) -> list[SubTracklet]:
    """Split surviving frames into segments of ``stride`` frames.

    A trailing remainder shorter than the stride is appended to the last full
    segment, so the final segment has length in [stride, 2*stride - 1]; a
    tracklet shorter than the stride becomes a single segment.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    length = len(ft.surviving_indices)
    if length == 0:
        return []
    bounds = []
    full = length // stride
    if full <= 1:
        bounds.append((0, length - 1))
    else:
        for t in range(full - 1):
            bounds.append((t * stride, (t + 1) * stride - 1))
        bounds.append(((full - 1) * stride, length - 1))
    return [
        SubTracklet(ft.parent_id, t + 1, rng)
        for t, rng in enumerate(bounds)
    ]


def sample_frames(segment_length: int, count: int, stride: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of ``count`` frames at the given stride from a random start.

    When the strided span does not fit into the segment, the indices wrap
    modulo the segment length instead of shrinking the sample.
    """
    if count < 1 or stride < 1:
        raise ValueError("count and stride must be >= 1")
    if segment_length < 1:
        raise ValueError("empty segment")
    span = (count - 1) * stride
    if span < segment_length:
        start = int(rng.integers(0, segment_length - span))
        return start + stride * np.arange(count)
    start = int(rng.integers(0, segment_length))
    return (start + stride * np.arange(count)) % segment_length


def nftp_all(
    feature_tracklets: Sequence[tuple[str, np.ndarray]],
    cfg: TrainConfig,
    filter_frames: bool = True,
    do_partition: bool = True,
) -> list[tuple[FilteredTracklet, list[SubTracklet]]]:
    """Filter and partition every tracklet once (one call per epoch).

    Without partitioning each tracklet is one unit spanning all its surviving frames.
    """
    out = []
    for tid, frames in feature_tracklets:
        if filter_frames:
            ft = noise_filter(frames, cfg.filter_factor)
            ft = FilteredTracklet(tid, ft.surviving_indices, ft.filtered_indices, ft.threshold)
        else:
            ft = keep_all(tid, frames.shape[0])
        stride = cfg.partition_stride if do_partition else len(ft.surviving_indices)
        out.append((ft, partition(ft, stride)))
    return out
