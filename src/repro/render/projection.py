"""Projection stage of the 3DGS pipeline (forward pass, Fig. 3).

Transforms Gaussians into the camera frame, culls those outside the view
frustum, and computes their 2D splat parameters: the projected mean, the
isotropic 2D standard deviation, and the bounding-box radius used by the
tile/pixel intersection logic downstream.  Both pipelines project here:
the sparse render of every tracking iteration, and the dense render of
mapping and of the dataset's frames.

The world-to-camera transform stays in numpy (``Camera.world_to_camera``,
a BLAS matmul); everything after it is compiled (``project_cull`` and
``project_gather`` in ``kernels/_native.c``), bit for bit the numpy it
replaced, which ``tests/projection_oracle.py`` keeps as the oracle.  The
transform's bits depend on the BLAS kernel that runs it, a second
host-dependent bit source beside numpy's ``exp``: the OpenBLAS 0.3.31
``dgemm`` of a 2-vCPU Xeon (``SkylakeX`` core) forms each coordinate as
``fma(z, R₂, fma(y, R₁, x·R₀)) + t`` (200 of 200 random clouds), which a
plain C transform under ``-ffp-contract=off`` matches on none, so the
transform cannot move into the kernel without a pinned formula.  At
about 30 µs on a 1,520-Gaussian cloud it is now the largest part of a
projection.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import FrozenCloud, GaussianCloud
from .kernels import native
from .kernels.native import f64, pointers, ptr

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


_FIELDS = tuple(f.name for f in fields(ProjectedGaussians))
_CLOUD_FIELDS = ("scales", "opacities", "colors")


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

    The world-to-camera transform stays in numpy; the compiled
    ``project_cull`` and ``project_gather`` (``_native.c``) do the rest:
    the first finds the survivors, the second writes each field to an
    array of its own, sized to their count.
    """
    intr = camera.intrinsics
    p_cam = f64(camera.world_to_camera(cloud.means))
    n = p_cam.shape[0]
    scales, opacities, colors = cloud.scales, cloud.opacities, cloud.colors
    if (scales.shape != (n,) or opacities.shape != (n,)
            or colors.shape != (n, 3)):
        raise ValueError("project gaussians: scales, opacities or colours "
                         "do not match the means")
    if isinstance(cloud, FrozenCloud):
        # The same arrays at every projection: their pointers are read
        # once and kept with the snapshot.
        scales_p, opacities_p, colors_p = pointers(cloud, _CLOUD_FIELDS)
    else:
        # Locals hold every argument array alive through both calls.
        scales, opacities, colors = f64(scales), f64(opacities), f64(colors)
        scales_p, opacities_p, colors_p = (ptr(scales), ptr(opacities),
                                           ptr(colors))
    fx, fy, cx, cy = intr.fx, intr.fy, intr.cx, intr.cy
    mean_focal = 0.5 * (fx + fy)
    index = np.empty(n, dtype=np.int64)
    p_cam_p, index_p = ptr(p_cam), ptr(index)
    lib = native.library()
    m = lib.project_cull(n, p_cam_p, scales_p, fx, fy, cx, cy, mean_focal,
                         intr.width, intr.height, near, far, margin_sigma,
                         index_p)
    # The kernel writes the projection's arrays, so the later kernels
    # find their pointers kept with them.
    proj = ProjectedGaussians(
        np.empty(m, dtype=np.int64), np.empty((m, 3)), np.empty((m, 2)),
        np.empty(m), np.empty(m), np.empty(m), np.empty((m, 3)),
        np.empty(m), np.empty(m))
    if lib.project_gather(m, index_p, n, p_cam_p, scales_p, opacities_p,
                          colors_p, fx, fy, cx, cy, mean_focal, margin_sigma,
                          *pointers(proj, _FIELDS[:1], np.int64),
                          *pointers(proj, _FIELDS[1:])):
        raise ValueError("project gaussians: the cull kept an index past "
                         "the cloud")
    return proj
