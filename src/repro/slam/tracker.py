"""Camera tracking: per-frame pose optimization (Sec. II-A).

Each frame's pose is optimized by quasi-Newton descent on the RGB-D loss with
the map held fixed.  The tracker supports two rendering modes:

- ``sparse``  — SPLATONIC's pixel set (one pixel per ``w_t x w_t`` tile)
  rendered with the pixel-based pipeline;
- ``dense``   — the full frame rendered with the tile-based pipeline (the
  Org. baseline).

The pose update is right-multiplicative on SE(3): ``T <- T @ exp(xi)``.
The twist is found by BFGS (Nocedal & Wright, ch. 6) with a fresh
inverse-Hessian estimate per frame and an Armijo backtracking line search
whose trials are forward-only: only an accepted point pays for the
pose-only backward, over that trial's own render.  Each frame opens with
a steepest-descent step sized by its own loss, ``min(1e-2, 2 * loss /
|g|)``, so a prior already near the truth is not searched from a 1 cm
step down.  Each forward counts as one iteration (at most
``tracking_iters``); the frame stops when a step or a backtracked trial
gets negligibly short, and its estimate is the lowest-loss pose any
forward saw (SplaTAM keeps the best pose the same way).

Besides its forwards (render and loss), a sparse frame pays once: one
pixel draw (one ``Generator.integers`` call), a :class:`FrozenCloud`
snapshot of the map (``exp`` and ``sigmoid`` over every Gaussian) and the
closing :func:`~repro.gaussians.se3.se3_project`; per trial after the
first, one :func:`~repro.gaussians.se3.se3_exp`; per accepted point, one
pose-only backward and the BFGS update of a 6x6 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.splatonic import Splatonic
from ..gaussians.camera import Camera, Intrinsics
from ..obs import trace
from ..obs.health import get_monitor
from ..gaussians.model import FrozenCloud, GaussianCloud
from ..gaussians.se3 import se3_exp, se3_project
from ..render.backward import backward_full
from ..render.stats import PipelineStats
from .config import AlgorithmConfig
from .losses import rgbd_loss

__all__ = ["TrackingResult", "Tracker"]

#: Longest steepest-descent step (twist units: metres and radians).  A
#: frame opens at ``min(_FIRST_STEP, 2 * loss / |g|)``: the loss is a
#: non-negative weighted L1, and ``2 * loss / |g|`` is the Newton length of
#: the quadratic that has the loss and slope seen and its minimum at 0 (a
#: Polyak-type step), so a prior already near the truth opens short and a
#: far-off one at the full length.  A restart mid-frame takes the full length.
_FIRST_STEP = 1e-2
#: Armijo sufficient-decrease constant (Nocedal & Wright, eq. 3.4).
_ARMIJO = 1e-4
#: Converged: an accepted step this short, or backtracking this far with
#: no acceptance.
_MIN_STEP = 1e-5
_MIN_TRIAL = 1e-6
_EYE6 = np.eye(6)
_EYE6.flags.writeable = False


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
        collect_curve: bool = False,
        pixels: Optional[np.ndarray] = None,
    ) -> TrackingResult:
        """Optimize the frame's pose starting from ``init_pose_c2w``.

        ``collect_curve=True`` additionally records the per-iteration
        loss values (for the flight recorder); the default keeps the
        hot loop allocation-free.  ``pixels`` (sparse mode only) is a
        ``(K, 2)`` pixel set that replaces the tracker's own sampling.
        The reverse pass is pose-only: the map is fixed, so only
        ``d_pose_twist`` is computed, and every forward renders a
        :class:`FrozenCloud` snapshot of it taken once per call.

        The first step runs down ``-g`` at length ``min(_FIRST_STEP,
        2 * loss / |g|)``, from the prior's own loss and gradient; no
        state carries over from the previous frame.  ``iterations``
        counts forwards, backtracked trials included; a trial that sees
        no valid pixel is rejected.  ``final_loss`` is the loss of the
        returned pose.  A non-finite loss at any forward, or a
        non-finite gradient, alerts the health monitor and ends the
        frame at the best finite estimate so far.
        """
        iters = self.algo.tracking_iters
        pose = np.asarray(init_pose_c2w, dtype=float).copy()
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

        it = 0
        converged = False
        curve: Optional[List[float]] = [] if collect_curve else None
        best_pose, best_loss = pose, np.inf
        # BFGS state: loss, gradient, search direction and inverse Hessian
        # at ``pose``; ``grad is None`` until the first forward is in.
        loss = slope = step_len = 0.0
        grad = direction = inv_hess = None
        t = 1.0
        while it < iters:
            it += 1
            trial = pose if grad is None else pose @ se3_exp(t * direction)
            camera = Camera(self.intrinsics, trial)
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
            fwd_stats.merge(result.stats)
            if curve is not None:
                curve.append(float(out.loss))
            if grad is None or (out.num_valid and out.loss < best_loss):
                best_pose, best_loss = trial, out.loss
            # Finite guard (always on): a poisoned loss must not reach
            # the line search or the pose -- alert through the health
            # monitors and keep the best estimate so far.
            if not np.isfinite(out.loss):
                get_monitor().non_finite("tracking loss/gradient",
                                         iteration=it, loss=float(out.loss))
                break
            if grad is None and out.num_valid == 0:
                break
            if grad is not None and (
                    out.num_valid == 0
                    or out.loss > loss + _ARMIJO * t * slope):
                # Armijo backtracking; a trial that sees no valid pixel
                # has left the map and is rejected as well.
                t *= 0.5
                if t * step_len < _MIN_TRIAL:
                    converged = True
                    break
                continue
            step = None if grad is None else t * direction
            if step is not None and t * step_len < _MIN_STEP:
                converged = True
                break
            if it >= iters:
                break
            # Only an accepted point pays for a backward: pose-only, over
            # this trial's own render result and composite cache.
            with trace.span("tracking_bwd", iteration=it):
                grads = backward(result, cloud, camera,
                                 out.d_color, out.d_depth, out.d_silhouette,
                                 pose_only=True)
            bwd_stats.merge(grads.stats)
            new_grad = grads.d_pose_twist
            if not np.all(np.isfinite(new_grad)):
                get_monitor().non_finite("tracking loss/gradient",
                                         iteration=it, loss=float(out.loss))
                break
            if step is not None:
                y = new_grad - grad
                sy = float(step @ y)
                if sy > 0.0:
                    if inv_hess is None:
                        inv_hess = sy / float(y @ y) * _EYE6
                    v = _EYE6 - np.outer(step, y) / sy
                    inv_hess = v @ inv_hess @ v.T + np.outer(step, step) / sy
            pose, loss, grad = trial, out.loss, new_grad
            direction = None if inv_hess is None else -inv_hess @ grad
            if direction is None or float(grad @ direction) >= 0.0:
                # No curvature yet, or not a descent direction: restart
                # from steepest descent (first direction sized by the
                # loss, see ``_FIRST_STEP``).
                norm = float(np.linalg.norm(grad))
                if norm == 0.0:
                    converged = True
                    break
                inv_hess = None
                length = _FIRST_STEP
                if step is None:
                    length = min(length, 2.0 * loss / norm)
                direction = -length / norm * grad
            slope = float(grad @ direction)
            step_len = float(np.linalg.norm(direction))
            t = 1.0

        return TrackingResult(
            # ``pose @ se3_exp(step)`` drifts off SE(3) a little every
            # step; the estimate leaves the tracker rigid.
            pose_c2w=se3_project(best_pose),
            iterations=it,
            final_loss=float(best_loss),
            converged=converged,
            forward_stats=fwd_stats,
            backward_stats=bwd_stats,
            num_sampled_pixels=num_sampled,
            loss_curve=curve,
        )
