"""The numpy projection that ``repro.render.projection.project_gaussians``
compiled: the oracle every ``ProjectedGaussians`` field must equal bit for
bit.

The world-to-camera transform is shared (``Camera.world_to_camera``); the
rest is the numpy body the compiled ``project`` kernel replaced.
"""

from __future__ import annotations

import numpy as np

from repro.render.projection import RADIUS_SIGMA, ProjectedGaussians


def project_gaussians(cloud, camera, near=0.01, far=1e6,
                      margin_sigma=RADIUS_SIGMA) -> ProjectedGaussians:
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
