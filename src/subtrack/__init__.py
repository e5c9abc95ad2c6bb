"""Unsupervised tracklet pseudo-label refinement pipeline."""

from .model import (
    OUTLIER,
    LabelState,
    SubTracklet,
    Tracklet,
    TrainConfig,
    default_config,
)

__all__ = [
    "OUTLIER",
    "LabelState",
    "SubTracklet",
    "Tracklet",
    "TrainConfig",
    "default_config",
]

__version__ = "0.1.0"
