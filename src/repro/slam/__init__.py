"""3DGS-SLAM engine: tracking + mapping with four algorithm presets."""

from .config import (
    ALGORITHMS,
    FLASHSLAM,
    GSSLAM,
    MONOGS,
    SPLATAM,
    AlgorithmConfig,
    get_algorithm,
)
from .keyframes import Keyframe, KeyframeBuffer
from .losses import LossConfig, LossOutput, rgbd_loss
from .mapper import Mapper, MappingResult
from .optim import Adam
from .system import SLAMResult, SLAMSystem
from .tracker import Tracker, TrackingResult

__all__ = [
    "ALGORITHMS",
    "AlgorithmConfig",
    "get_algorithm",
    "SPLATAM",
    "MONOGS",
    "GSSLAM",
    "FLASHSLAM",
    "Keyframe",
    "KeyframeBuffer",
    "LossConfig",
    "LossOutput",
    "rgbd_loss",
    "Mapper",
    "MappingResult",
    "Adam",
    "SLAMResult",
    "SLAMSystem",
    "Tracker",
    "TrackingResult",
]
