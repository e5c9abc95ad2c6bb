"""Noise-filtered tracklet partition.

Per tracklet: average the frame features into a center, drop frames whose
squared cosine deviation from the center exceeds an adaptive threshold, then
split the survivors into fixed-stride segments (the trailing remainder is
absorbed into the last full segment). ``trainer.cluster_epoch`` calls
``noise_filter`` and ``partition`` once per tracklet; the training loop draws
every sample of a batch with one ``sample_frames`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SubTracklet


@dataclass(frozen=True, eq=False)
class FilteredTracklet:
    """One tracklet's noise-filter outcome as ascending int index arrays into its frames."""

    surviving_indices: np.ndarray
    filtered_indices: np.ndarray
    threshold: float


def center_feature(frames: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the frame features; deliberately not renormalized."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("center_feature needs a non-empty (L, dim) array")
    return np.add.reduce(frames, axis=0) / frames.shape[0]  # mean(axis=0)'s sum and division


def frame_distances(frames: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared cosine deviation (1 - cos(f, center))**2 of each frame row f."""
    frames = np.asarray(frames, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    norms = np.sqrt(np.add.reduce(frames * frames, axis=1))  # np.linalg.norm's sums
    nc = np.sqrt(center @ center)
    if nc == 0.0 or not norms.all():
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
    return FilteredTracklet(np.flatnonzero(keep), np.flatnonzero(~keep), threshold)


def partition(parent_id: str, length: int, stride: int) -> list[SubTracklet]:
    """Split ``length`` surviving frames of tracklet ``parent_id`` into segments of ``stride``.

    Each segment's ``frame_range`` indexes the surviving frames, i.e. the
    tracklet's frames at ``surviving_indices``. A trailing remainder shorter
    than the stride is appended to the last full segment, so the final segment
    has length in [stride, 2*stride - 1]; a tracklet shorter than the stride
    becomes a single segment.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
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
    return [SubTracklet(parent_id, t + 1, rng) for t, rng in enumerate(bounds)]


def sample_frames(segment_lengths, count: int, stride: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of ``count`` frames at the given stride from a random start, per segment.

    ``segment_lengths`` is one length or an array of them; the result has one
    row of ``count`` indices per length. When the strided span does not fit
    into a segment, its indices wrap modulo the segment length instead of
    shrinking the sample. All starts come from one ``rng.integers`` call, which
    draws the values, and leaves ``rng`` in the state, of one scalar call per
    segment in order.
    """
    if count < 1 or stride < 1:
        raise ValueError("count and stride must be >= 1")
    lengths = np.asarray(segment_lengths)
    if (lengths < 1).any():
        raise ValueError("empty segment")
    span = (count - 1) * stride
    starts = rng.integers(0, np.where(span < lengths, lengths - span, lengths))
    # a span that fits ends below its length, so the modulo only wraps the others
    return (np.asarray(starts)[..., None] + stride * np.arange(count)) % lengths[..., None]
