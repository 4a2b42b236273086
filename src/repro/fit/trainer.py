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
    result = SceneFitter(cloud, views, iterations=200).fit()
    result.cloud  # the fitted scene

The iteration count is the one setting; the pixel lattice, the loss mix,
the learning rates, the sampling seed and the background are the module
constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

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

__all__ = ["FitResult", "SceneFitter"]

View = Tuple[Camera, np.ndarray, np.ndarray]


#: One training pixel per ``_SAMPLE_TILE`` x ``_SAMPLE_TILE`` tile.
_SAMPLE_TILE = 2
_LOSS = LossConfig(color_weight=1.0, depth_weight=0.3)
#: Adam learning rates per parameter group (quaternions: anisotropic only).
_LR_MEANS = 2e-3
_LR_LOG_SCALES = 4e-3
_LR_QUATERNIONS = 4e-3
_LR_LOGIT_OPACITIES = 2e-2
_LR_COLORS = 1e-2
#: Seed of the per-iteration pixel lattice.
_SEED = 0
#: Background color composited behind the cloud (0.05 grey).
_BACKGROUND = np.full(3, 0.05)


@dataclass
class FitResult:
    """Fitted cloud plus the per-iteration loss history."""

    cloud: object
    losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def _learning_rates(cloud) -> np.ndarray:
    n = len(cloud)
    if isinstance(cloud, AnisotropicCloud):
        return np.concatenate([
            np.full(3 * n, _LR_MEANS),
            np.full(3 * n, _LR_LOG_SCALES),
            np.full(4 * n, _LR_QUATERNIONS),
            np.full(n, _LR_LOGIT_OPACITIES),
            np.full(3 * n, _LR_COLORS),
        ])
    return np.concatenate([
        np.full(3 * n, _LR_MEANS),
        np.full(n, _LR_LOG_SCALES),
        np.full(n, _LR_LOGIT_OPACITIES),
        np.full(3 * n, _LR_COLORS),
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
    iterations:
        Optimization steps, one view each, round-robin over ``views``.
    """

    def __init__(self, cloud, views: Sequence[View], iterations: int = 200):
        if not views:
            raise ValueError("need at least one view")
        if not isinstance(cloud, (GaussianCloud, AnisotropicCloud)):
            raise TypeError(
                "cloud must be a GaussianCloud or AnisotropicCloud")
        self.cloud = cloud
        self.views = list(views)
        self.iterations = iterations
        self.rng = np.random.default_rng(_SEED)
        self._render, self._backward = (
            (render_sparse_anisotropic, backward_sparse_anisotropic)
            if isinstance(cloud, AnisotropicCloud)
            else (render_sparse, backward_sparse))

    def fit(self) -> FitResult:
        """Run the optimization; returns the fitted cloud and history."""
        cloud = self.cloud
        adam = Adam(cloud.pack().shape[0], _learning_rates(cloud))
        losses: List[float] = []

        for it in range(1, self.iterations + 1):
            camera, color, depth = self.views[(it - 1) % len(self.views)]
            intr = camera.intrinsics
            pixels = sample_tracking_pixels(
                intr.width, intr.height, _SAMPLE_TILE, "random", self.rng)
            result = self._render(cloud, camera, pixels, _BACKGROUND)
            ref_c = color[pixels[:, 1], pixels[:, 0]]
            ref_d = depth[pixels[:, 1], pixels[:, 0]]
            out = rgbd_loss(result.color, result.depth, result.silhouette,
                            ref_c, ref_d, _LOSS, tracking=False)
            grads = self._backward(result, cloud, camera, out.d_color,
                                   out.d_depth, out.d_silhouette)
            cloud = cloud.unpack(cloud.pack() + adam.step(
                grads.as_cloud_vector()))
            losses.append(out.loss)

        return FitResult(cloud=cloud, losses=losses)
