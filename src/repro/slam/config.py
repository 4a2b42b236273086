"""Per-algorithm configurations for the four evaluated 3DGS-SLAM systems.

The paper evaluates SPLATONIC on SplaTAM, MonoGS, GS-SLAM, and FlashSLAM.
We model each as a configuration of one SLAM engine, reproducing the knobs
that distinguish the four papers and that matter to this paper's claims —
the tracking/mapping iteration budgets (which set the tracking-dominated
latency split of Fig. 4), the loss mixes, the mapping cadence (4-8 frames),
and the keyframe window.  Iteration counts are scaled down uniformly from
the originals (SplaTAM uses 40+60 at 1200x680; we run small frames), which
preserves the *ratios* the performance model depends on.

What the four share is not configured here: the mapping learning rates,
the seed opacity and the prune threshold are constants of
:mod:`repro.slam.mapper`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from .losses import LossConfig

__all__ = ["AlgorithmConfig", "ALGORITHMS", "get_algorithm", "SPLATAM",
           "MONOGS", "GSSLAM", "FLASHSLAM"]


@dataclass(frozen=True)
class AlgorithmConfig:
    """Engine knobs reproducing one 3DGS-SLAM system."""

    name: str
    tracking_iters: int
    mapping_iters: int
    map_every: int              # mapping invoked every N frames (4-8)
    keyframe_every: int         # a frame becomes a keyframe every N frames
    keyframe_window: int        # recent keyframes optimized per mapping
    tracking_loss: LossConfig
    mapping_loss: LossConfig

    def with_overrides(self, **kwargs) -> "AlgorithmConfig":
        return replace(self, **kwargs)


SPLATAM = AlgorithmConfig(
    name="splatam",
    tracking_iters=60,
    mapping_iters=24,
    map_every=4,
    keyframe_every=4,
    keyframe_window=5,
    tracking_loss=LossConfig(color_weight=0.5, depth_weight=1.0,
                             silhouette_threshold=0.99),
    mapping_loss=LossConfig(color_weight=0.5, depth_weight=1.0,
                            silhouette_weight=0.1),
)

# MonoGS (Gaussian Splatting SLAM, Matsuki et al.): leans on photometric
# error with a smaller depth term, shorter per-frame optimization, denser
# keyframing.
MONOGS = AlgorithmConfig(
    name="monogs",
    tracking_iters=50,
    mapping_iters=20,
    map_every=8,
    keyframe_every=4,
    keyframe_window=4,
    tracking_loss=LossConfig(color_weight=0.9, depth_weight=0.3,
                             silhouette_threshold=0.95, huber_delta=0.05),
    mapping_loss=LossConfig(color_weight=0.9, depth_weight=0.3,
                            huber_delta=0.05),
)

# GS-SLAM (Yan et al.): balanced RGB-D loss with an opacity regularizer
# and a coarser mapping cadence.
GSSLAM = AlgorithmConfig(
    name="gsslam",
    tracking_iters=45,
    mapping_iters=14,
    map_every=5,
    keyframe_every=5,
    keyframe_window=4,
    tracking_loss=LossConfig(color_weight=0.6, depth_weight=0.8,
                             silhouette_threshold=0.98),
    mapping_loss=LossConfig(color_weight=0.6, depth_weight=0.8,
                            silhouette_weight=0.2),
)

# FlashSLAM (Pham et al.): the "accelerated" configuration — the fewest
# tracking and mapping iterations.
FLASHSLAM = AlgorithmConfig(
    name="flashslam",
    tracking_iters=30,
    mapping_iters=10,
    map_every=4,
    keyframe_every=4,
    keyframe_window=3,
    tracking_loss=LossConfig(color_weight=0.5, depth_weight=1.0,
                             silhouette_threshold=0.99),
    mapping_loss=LossConfig(color_weight=0.5, depth_weight=1.0),
)

ALGORITHMS: Dict[str, AlgorithmConfig] = {
    cfg.name: cfg for cfg in (SPLATAM, MONOGS, GSSLAM, FLASHSLAM)
}


def get_algorithm(name: str) -> AlgorithmConfig:
    """Look up an algorithm preset by name."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
