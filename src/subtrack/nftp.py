"""Noise-filtered tracklet partition.

Per tracklet: average the frame features into a center, drop frames whose
squared cosine deviation from the center exceeds an adaptive threshold, then
split the survivors into fixed-stride segments (the trailing remainder is
absorbed into the last full segment). ``noise_filter`` returns the kept
frames' indices and the threshold, ``partition`` a list of inclusive
(start, end) int pairs; ``trainer.cluster_epoch`` calls both once per
tracklet and walks the pairs once. The training loop draws every sample of a
batch with one ``sample_frames`` call.
"""

from __future__ import annotations

import numpy as np


def noise_filter(frames: np.ndarray, filter_factor: float) -> tuple[np.ndarray, float]:
    """Ascending indices of the frames kept, and the adaptive threshold.

    The center is the frames' arithmetic mean, deliberately not renormalized;
    a frame's deviation is (1 - cos(frame, center))**2. A frame is dropped when
    its deviation strictly exceeds the threshold: the mean deviation scaled by
    1/filter_factor, so larger factors filter more aggressively.
    """
    if filter_factor <= 0:
        raise ValueError("filter_factor must be > 0")
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("noise_filter needs a non-empty (L, dim) array")
    center = np.add.reduce(frames, axis=0) / frames.shape[0]  # mean(axis=0)'s sum and division
    norms = np.sqrt(np.add.reduce(frames * frames, axis=1))  # np.linalg.norm's sums
    nc = np.sqrt(center @ center)
    if nc == 0.0 or not norms.all():
        raise ValueError("frame distance is undefined for zero-norm vectors")
    dist = (1.0 - (frames @ center) / (norms * nc)) ** 2
    threshold = float(dist.sum() / (frames.shape[0] * filter_factor))
    kept = np.flatnonzero(dist <= threshold)
    # Degenerate under floating-point noise: keep the frame closest to the
    # center so the partition always has input.
    return (kept if kept.size else np.argmin(dist, keepdims=True)), threshold


def partition(length: int, stride: int) -> list[tuple[int, int]]:
    """Inclusive (start, end) int pairs, one per segment, of ``length`` frames cut by ``stride``.

    The bounds index the surviving frames, i.e. the tracklet's frames at the
    indices ``noise_filter`` kept. A trailing remainder shorter than the
    stride is appended to the last full segment, so the final segment has
    length in [stride, 2*stride - 1]; fewer frames than the stride become a
    single segment, and none give no pairs.
    """
    if stride < 1 or length < 0:
        raise ValueError("stride must be >= 1 and length >= 0")
    segments = max(length // stride, 1) if length else 0
    starts = range(0, segments * stride, stride)
    return list(zip(starts, [*(a - 1 for a in starts[1:]), length - 1]))


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
