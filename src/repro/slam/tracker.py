"""Camera tracking: per-frame pose optimization (Sec. II-A).

Each frame's pose is optimized by gradient descent on the RGB-D loss with
the map held fixed.  The tracker supports two rendering modes:

- ``sparse``  — SPLATONIC's pixel set (one pixel per ``w_t x w_t`` tile)
  rendered with the pixel-based pipeline;
- ``dense``   — the full frame rendered with the tile-based pipeline (the
  Org. baseline).

The pose update is right-multiplicative on SE(3): ``T <- T @ exp(xi)``
with a fresh Adam state per frame, separate learning rates for the
translational and rotational twist components, and early stopping when the
loss stops improving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.splatonic import Splatonic
from ..gaussians.camera import Camera, Intrinsics
from ..obs import trace
from ..obs import atlas as obs_atlas
from ..obs.health import get_monitor
from ..gaussians.model import FrozenCloud, GaussianCloud
from ..gaussians.se3 import se3_exp, se3_project
from ..render.backward import backward_full
from ..render.stats import PipelineStats
from .config import AlgorithmConfig
from .losses import rgbd_loss
from .optim import Adam

__all__ = ["TrackingResult", "Tracker"]


@dataclass
class TrackingResult:
    """Outcome of tracking one frame."""

    pose_c2w: np.ndarray
    iterations: int
    final_loss: float
    converged: bool
    forward_stats: PipelineStats = field(default_factory=PipelineStats)
    backward_stats: PipelineStats = field(default_factory=PipelineStats)
    num_sampled_pixels: int = 0
    # Per-iteration loss values; collected only on request (the flight
    # recorder asks for it), None otherwise.
    loss_curve: Optional[List[float]] = None


class Tracker:
    """Per-frame pose estimator over a fixed Gaussian map."""

    def __init__(self, algo: AlgorithmConfig, intrinsics: Intrinsics,
                 splatonic: Optional[Splatonic] = None,
                 mode: str = "sparse",
                 background: Optional[np.ndarray] = None):
        if mode not in ("sparse", "dense"):
            raise ValueError("mode must be 'sparse' or 'dense'")
        if mode == "sparse" and splatonic is None:
            raise ValueError("sparse tracking needs a Splatonic instance")
        self.algo = algo
        self.intrinsics = intrinsics
        self.splatonic = splatonic or Splatonic()
        self.mode = mode
        self.background = (np.zeros(3) if background is None
                           else np.asarray(background, float))

    def track_frame(
        self,
        cloud: GaussianCloud,
        init_pose_c2w: np.ndarray,
        ref_color: np.ndarray,
        ref_depth: np.ndarray,
        max_iters: Optional[int] = None,
        collect_curve: bool = False,
        pixels: Optional[np.ndarray] = None,
    ) -> TrackingResult:
        """Optimize the frame's pose starting from ``init_pose_c2w``.

        ``collect_curve=True`` additionally records the per-iteration
        loss values (for the flight recorder); the default keeps the
        hot loop allocation-free.  ``pixels`` (sparse mode only) is a
        ``(K, 2)`` pixel set that replaces the tracker's own sampling.
        The reverse pass is pose-only: the map is fixed, so only
        ``d_pose_twist`` is computed, and every iteration renders a
        :class:`FrozenCloud` snapshot of it taken once per call.
        """
        iters = max_iters if max_iters is not None else self.algo.tracking_iters
        # Attribute this frame's render observations to the tracking stage
        # of the sparsity atlas (no-op unless a frame is being collected).
        obs_atlas.set_stage("tracking")
        pose = np.asarray(init_pose_c2w, dtype=float).copy()
        lr = np.concatenate([
            np.full(3, self.algo.lr_translation),
            np.full(3, self.algo.lr_rotation),
        ])
        adam = Adam(6, lr)
        cloud = FrozenCloud(cloud)

        record = self.splatonic.config.record_per_pixel
        fwd_stats = PipelineStats(pipeline=self.mode, record_per_pixel=record)
        bwd_stats = PipelineStats(pipeline=self.mode, record_per_pixel=record)
        if pixels is not None and self.mode != "sparse":
            raise ValueError("pixels= needs sparse tracking")
        # Dense vs sparse picks only the render and the backward pass;
        # the loss takes the full images or the sampled pixels alike.
        backward = backward_full
        if self.mode == "sparse":
            if pixels is None:
                pixels = self.splatonic.sample_tracking(
                    Camera(self.intrinsics, pose), image=ref_color)
            ref_color = ref_color[pixels[:, 1], pixels[:, 0]]
            ref_depth = ref_depth[pixels[:, 1], pixels[:, 0]]
            backward = self.splatonic.backward_sparse
        num_sampled = int(ref_depth.size)

        best_loss = np.inf
        stall = 0
        loss_value = 0.0
        it = 0
        converged = False
        curve: Optional[List[float]] = [] if collect_curve else None
        for it in range(1, iters + 1):
            camera = Camera(self.intrinsics, pose)
            with trace.span("tracking_fwd", iteration=it):
                if pixels is None:
                    result = self.splatonic.render_full(
                        cloud, camera, self.background)
                else:
                    result = self.splatonic.render_sparse(
                        cloud, camera, pixels, self.background)
                out = rgbd_loss(result.color, result.depth,
                                result.silhouette, ref_color, ref_depth,
                                self.algo.tracking_loss, tracking=True)
            with trace.span("tracking_bwd", iteration=it):
                grads = backward(result, cloud, camera,
                                 out.d_color, out.d_depth, out.d_silhouette,
                                 pose_only=True)
            fwd_stats.merge(result.stats)
            bwd_stats.merge(grads.stats)
            loss_value = out.loss
            if curve is not None:
                curve.append(float(loss_value))

            if out.num_valid == 0:
                break
            # Finite guard (always on): a poisoned loss or gradient must
            # not reach the Adam state or the pose — alert through the
            # health monitors and keep the last good estimate.
            if not (np.isfinite(loss_value)
                    and np.all(np.isfinite(grads.d_pose_twist))):
                get_monitor().non_finite("tracking loss/gradient",
                                         iteration=it,
                                         loss=float(loss_value))
                break
            step = adam.step(grads.d_pose_twist)
            pose = pose @ se3_exp(step)

            if loss_value < best_loss * (1.0 - self.algo.track_converge_rel):
                best_loss = loss_value
                stall = 0
            else:
                stall += 1
                if stall >= self.algo.track_converge_patience:
                    converged = True
                    break

        return TrackingResult(
            # ``pose @ se3_exp(step)`` drifts off SE(3) a little every
            # iteration; the estimate leaves the tracker rigid.
            pose_c2w=se3_project(pose),
            iterations=it,
            final_loss=loss_value,
            converged=converged,
            forward_stats=fwd_stats,
            backward_stats=bwd_stats,
            num_sampled_pixels=num_sampled,
            loss_curve=curve,
        )
