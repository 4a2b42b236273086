"""Multi-view 3DGS scene fitting (the training substrate under SLAM).

SLAM's mapper is a streaming special case of plain 3DGS training: fit a
Gaussian cloud to a set of posed RGB-D views by gradient descent.  This
module provides that general trainer for **both** cloud representations —
the isotropic :class:`~repro.gaussians.GaussianCloud` and the
full-covariance :class:`~repro.render.AnisotropicCloud` — rendering through
the sparse pixel pipeline (a fresh one-per-tile lattice each epoch, so
coverage is stochastic but complete in expectation) and stepping all
parameters with Adam.  Every view carries depth, and the cloud keeps its
size: the trainer neither prunes nor densifies.

Typical use::

    views = [(camera, color, depth), ...]
    result = SceneFitter(cloud, views, FitConfig(iterations=200)).fit()
    result.cloud  # the fitted scene
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.pixel_pipeline import backward_sparse, render_sparse
from ..core.sampling import sample_tracking_pixels
from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..render.anisotropic import (
    AnisotropicCloud,
    backward_sparse_anisotropic,
    render_sparse_anisotropic,
)
from ..slam.losses import LossConfig, rgbd_loss
from ..slam.optim import Adam

__all__ = ["FitConfig", "FitResult", "SceneFitter"]

View = Tuple[Camera, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class FitConfig:
    """Trainer hyper-parameters."""

    iterations: int = 200
    sample_tile: int = 2          # one training pixel per tile x tile
    loss: LossConfig = LossConfig(color_weight=1.0, depth_weight=0.3)
    lr_means: float = 2e-3
    lr_log_scales: float = 4e-3
    lr_quaternions: float = 4e-3   # anisotropic only
    lr_logit_opacities: float = 2e-2
    lr_colors: float = 1e-2
    seed: int = 0

    def with_overrides(self, **kwargs) -> "FitConfig":
        return replace(self, **kwargs)


@dataclass
class FitResult:
    """Fitted cloud plus the per-iteration loss history."""

    cloud: object
    losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def _learning_rates(cloud, cfg: FitConfig) -> np.ndarray:
    n = len(cloud)
    if isinstance(cloud, AnisotropicCloud):
        return np.concatenate([
            np.full(3 * n, cfg.lr_means),
            np.full(3 * n, cfg.lr_log_scales),
            np.full(4 * n, cfg.lr_quaternions),
            np.full(n, cfg.lr_logit_opacities),
            np.full(3 * n, cfg.lr_colors),
        ])
    return np.concatenate([
        np.full(3 * n, cfg.lr_means),
        np.full(n, cfg.lr_log_scales),
        np.full(n, cfg.lr_logit_opacities),
        np.full(3 * n, cfg.lr_colors),
    ])


class SceneFitter:
    """Fits a Gaussian cloud to posed RGB-D views.

    Parameters
    ----------
    cloud:
        Initial :class:`GaussianCloud` or :class:`AnisotropicCloud`; the
        representation is detected and the matching renderer used.
    views:
        Sequence of ``(camera, color, depth)`` tuples.
    config:
        A :class:`FitConfig`.
    """

    def __init__(self, cloud, views: Sequence[View],
                 config: FitConfig = FitConfig(),
                 background: Optional[np.ndarray] = None):
        if not views:
            raise ValueError("need at least one view")
        if not isinstance(cloud, (GaussianCloud, AnisotropicCloud)):
            raise TypeError(
                "cloud must be a GaussianCloud or AnisotropicCloud")
        self.cloud = cloud
        self.views = list(views)
        self.config = config
        self.background = (np.full(3, 0.05) if background is None
                           else np.asarray(background, float))
        self.rng = np.random.default_rng(config.seed)
        self._aniso = isinstance(cloud, AnisotropicCloud)

    # ---- rendering dispatch ----

    def _render(self, cloud, camera, pixels):
        if self._aniso:
            return render_sparse_anisotropic(cloud, camera, pixels,
                                             self.background)
        return render_sparse(cloud, camera, pixels, self.background)

    def _backward(self, result, cloud, camera, out):
        if self._aniso:
            return backward_sparse_anisotropic(
                result, cloud, camera, out.d_color, out.d_depth,
                out.d_silhouette)
        return backward_sparse(result, cloud, camera, out.d_color,
                               out.d_depth, out.d_silhouette)

    # ---- training ----

    def fit(self) -> FitResult:
        """Run the optimization; returns the fitted cloud and history."""
        cfg = self.config
        cloud = self.cloud
        adam = Adam(cloud.pack().shape[0], _learning_rates(cloud, cfg))
        losses: List[float] = []

        for it in range(1, cfg.iterations + 1):
            camera, color, depth = self.views[(it - 1) % len(self.views)]
            intr = camera.intrinsics
            pixels = sample_tracking_pixels(
                intr.width, intr.height, cfg.sample_tile, "random", self.rng)
            result = self._render(cloud, camera, pixels)
            ref_c = color[pixels[:, 1], pixels[:, 0]]
            ref_d = depth[pixels[:, 1], pixels[:, 0]]
            out = rgbd_loss(result.color, result.depth, result.silhouette,
                            ref_c, ref_d, cfg.loss, tracking=False)
            grads = self._backward(result, cloud, camera, out)
            cloud = cloud.unpack(cloud.pack() + adam.step(
                grads.as_cloud_vector()))
            losses.append(out.loss)

        return FitResult(cloud=cloud, losses=losses)
