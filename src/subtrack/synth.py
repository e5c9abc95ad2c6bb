"""Synthetic tracklet datasets with known ground truth.

Each identity gets a latent unit-vector prototype; tracklet frames are the
prototype plus a per-camera bias plus isotropic jitter. A fraction of
tracklets receives a contiguous spliced segment drawn from a different
identity's prototype, emulating identity-swap tracking errors. ``generate``
returns the ``(tracklets, splice_log)`` pair that ``storage.read_dataset``
returns; the splice log is the oracle for scoring the noise filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SpliceRecord, Tracklet

_MAX_PROTO_TRIES = 20000


@dataclass(frozen=True)
class SyntheticSpec:
    num_identities: int = 16
    num_cameras: int = 2
    tracklets_per_identity: int = 3
    tracklet_length_range: tuple[int, int] = (64, 128)
    raw_dim: int = 48
    identity_separation: float = 0.6   # minimum pairwise prototype angle, radians
    camera_shift_scale: float = 0.1
    splice_rate: float = 0.0
    splice_len_range: tuple[int, int] = (16, 32)
    jitter_scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.tracklet_length_range
        slo, shi = self.splice_len_range
        checks = [
            (self.num_identities >= 1, "num_identities >= 1"),
            (self.num_cameras >= 1, "num_cameras >= 1"),
            (self.tracklets_per_identity >= 1, "tracklets_per_identity >= 1"),
            (1 <= lo <= hi, "tracklet_length_range ordered and positive"),
            (1 <= slo <= shi, "splice_len_range ordered and positive"),
            (self.raw_dim >= 2, "raw_dim >= 2"),
            (0.0 <= self.splice_rate <= 1.0, "splice_rate in [0, 1]"),
            (self.identity_separation >= 0.0, "identity_separation >= 0"),
            (self.jitter_scale >= 0.0, "jitter_scale >= 0"),
            (self.camera_shift_scale >= 0.0, "camera_shift_scale >= 0"),
            (self.seed >= 0, "seed >= 0"),
            (not (self.splice_rate > 0 and shi >= lo),
             "splice_len_range max must be < tracklet_length_range min"),
        ]
        if problems := [rule for ok, rule in checks if not ok]:
            raise ValueError("invalid synthetic spec: " + "; ".join(problems))


def _sample_prototypes(rng: np.random.Generator, count: int, dim: int, separation: float) -> np.ndarray:
    """Unit vectors whose pairwise angle tracks ``separation``.

    Each prototype blends a shared direction with its own random direction
    (small separation pulls all identities together, making the clustering
    problem hard); candidates are resampled until every pairwise cosine
    similarity stays <= cos(separation). Separation 0 bounds nothing: all are accepted.
    """
    max_cos = np.cos(separation)
    blend = min(separation, np.pi / 2)
    shared = rng.normal(size=dim)
    shared /= np.linalg.norm(shared)
    protos = np.empty((count, dim))
    accepted = 0
    tries = 0
    while accepted < count:
        r = rng.normal(size=dim)
        r -= (r @ shared) * shared
        r /= np.linalg.norm(r)
        v = np.cos(blend) * shared + np.sin(blend) * r
        v /= np.linalg.norm(v)
        if accepted == 0 or separation == 0.0 or np.max(protos[:accepted] @ v) <= max_cos:
            protos[accepted] = v
            accepted += 1
        tries += 1
        if tries > _MAX_PROTO_TRIES:
            raise ValueError(
                f"could not place {count} prototypes with separation {separation} in dim {dim}"
            )
    return protos


def generate(spec: SyntheticSpec) -> tuple[list[Tracklet], dict[str, list[SpliceRecord]]]:
    """The spec's tracklets and its splice log: each spliced tracklet's id maps to its record."""
    rng = np.random.default_rng(spec.seed)
    protos = _sample_prototypes(rng, spec.num_identities, spec.raw_dim, spec.identity_separation)
    camera_bias = rng.normal(size=(spec.num_cameras, spec.raw_dim)) * spec.camera_shift_scale

    lo, hi = spec.tracklet_length_range
    slo, shi = spec.splice_len_range
    tracklets: list[Tracklet] = []
    splice_log: dict[str, list[SpliceRecord]] = {}
    for ident in range(spec.num_identities):
        for t in range(spec.tracklets_per_identity):
            tid = f"id{ident:04d}_t{t}"
            camera = int(rng.integers(spec.num_cameras))
            length = int(rng.integers(lo, hi + 1))
            frames = (
                protos[ident]
                + camera_bias[camera]
                + spec.jitter_scale * rng.normal(size=(length, spec.raw_dim))
            )
            if spec.splice_rate > 0 and rng.random() < spec.splice_rate and spec.num_identities > 1:
                slen = int(rng.integers(slo, shi + 1))
                start = int(rng.integers(0, length - slen + 1))
                source = int(rng.integers(spec.num_identities - 1))
                if source >= ident:
                    source += 1
                frames[start : start + slen] = (
                    protos[source]
                    + camera_bias[camera]
                    + spec.jitter_scale * rng.normal(size=(slen, spec.raw_dim))
                )
                splice_log[tid] = [SpliceRecord(start, start + slen - 1, source)]
            tracklets.append(Tracklet(tid, frames, identity=ident, camera=camera))
    return tracklets, splice_log


def oracle_noise_indices(splice_log: dict[str, list[SpliceRecord]], tracklet_id: str) -> set[int]:
    """Ground-truth spliced frame indices of one tracklet: none for one the log does not name."""
    return {i for rec in splice_log.get(tracklet_id, []) for i in range(rec.start, rec.end + 1)}
