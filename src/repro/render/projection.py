"""Projection stage of the 3DGS pipeline (forward pass, Fig. 3).

Transforms Gaussians into the camera frame, culls those outside the view
frustum, and computes their 2D splat parameters: the projected mean, the
isotropic 2D standard deviation, and the bounding-box radius used by the
tile/pixel intersection logic downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud

__all__ = [
    "ProjectedGaussians",
    "project_gaussians",
    "RADIUS_SIGMA",
]

# Splat truncation radius in units of sigma.  Chosen so that a splat's
# bounding box is a *conservative* filter for the default alpha threshold:
# alpha at the bbox edge is at most exp(-3.5^2 / 2) ~= 0.0022 < 1/255, so a
# pair rejected by the bbox test can never pass alpha-checking.  This is
# what makes the tile-based and pixel-based pipelines pixel-exact equal.
RADIUS_SIGMA = 3.5


@dataclass
class ProjectedGaussians:
    """Per-Gaussian 2D splat parameters for one camera view.

    All arrays are indexed by *projected* Gaussian; ``source_index`` maps
    back to the cloud so gradients can be scattered to the right rows.
    ``scale`` is the world-space scale each splat was projected with;
    re-projection reads it, and raises when it is missing.
    """

    source_index: np.ndarray  # (M,) int — index into the GaussianCloud
    p_cam: np.ndarray         # (M, 3) camera-frame centres
    mean2d: np.ndarray        # (M, 2) projected centres (pixels)
    sigma2d: np.ndarray       # (M,) isotropic 2D std-dev (pixels)
    depth: np.ndarray         # (M,) camera-frame z
    opacity: np.ndarray       # (M,) in (0, 1)
    color: np.ndarray         # (M, 3) clamped to [0, 1]
    radius: np.ndarray        # (M,) bbox half-extent = RADIUS_SIGMA * sigma2d
    scale: Optional[np.ndarray] = None  # (M,) cloud scale (metres)

    def __len__(self) -> int:
        return self.source_index.shape[0]

    def bbox(self) -> np.ndarray:
        """Return ``(M, 4)`` pixel bounding boxes ``(u_min, v_min, u_max, v_max)``."""
        r = self.radius[:, None]
        lo = self.mean2d - r
        hi = self.mean2d + r
        return np.concatenate([lo, hi], axis=1)


def project_gaussians(
    cloud: GaussianCloud,
    camera: Camera,
    near: float = 0.01,
    far: float = 1e6,
    margin_sigma: float = RADIUS_SIGMA,
) -> ProjectedGaussians:
    """Project a Gaussian cloud into a camera and cull off-screen splats.

    A Gaussian survives if its centre is within ``[near, far]`` in depth and
    its ``margin_sigma``-radius footprint overlaps the image rectangle.
    """
    intr = camera.intrinsics
    p_cam = camera.world_to_camera(cloud.means)
    z = p_cam[:, 2]
    in_depth = (z > near) & (z < far)

    mean_focal = 0.5 * (intr.fx + intr.fy)
    # Guard z for the masked-out entries so the vectorized ops stay finite.
    z_safe = np.where(in_depth, z, 1.0)
    u = intr.fx * p_cam[:, 0] / z_safe + intr.cx
    v = intr.fy * p_cam[:, 1] / z_safe + intr.cy
    scales = cloud.scales
    sigma = mean_focal * scales / z_safe
    radius = margin_sigma * sigma
    on_screen = (
        (u + radius > 0.0)
        & (u - radius < intr.width)
        & (v + radius > 0.0)
        & (v - radius < intr.height)
    )
    idx = np.nonzero(in_depth & on_screen)[0]
    return ProjectedGaussians(
        source_index=idx,
        p_cam=p_cam[idx],
        mean2d=np.stack([u[idx], v[idx]], axis=-1),
        sigma2d=sigma[idx],
        depth=z[idx],
        opacity=cloud.opacities[idx],
        color=np.clip(cloud.colors[idx], 0.0, 1.0),
        radius=radius[idx],
        scale=scales[idx],
    )
