"""Backward pass of the tile pipeline: reverse rasterization, aggregation,
and re-projection (Fig. 3, bottom).

Reverse rasterization walks the forward pass's cached composite blocks and
produces the pixel-Gaussian partial gradients (the render engine's
``pair_gradients`` stage, shared with the sparse pixel pipeline);
*aggregation* scatters them into per-Gaussian accumulators (``np.add.at``
plays the role of ``atomicAdd`` and the number of contributing pairs is
recorded as the atomic-contention workload);
*re-projection* finally maps the 2D splat gradients through the projection
into world-space parameter gradients and, for tracking, the camera-twist
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..gaussians.se3 import point_jacobian_wrt_twist
from ..obs import trace
from ..obs import atlas as _atlas_mod
# composite_backward is the per-tile oracle of the engine below; it stays
# importable from this module (perfbench/layers.py wraps it here).
from .compositing import composite_backward  # noqa: F401
from .kernels.vectorized import pair_gradients
from .projection import ProjectedGaussians
from .rasterize import RenderResult, tile_work_records
from .stats import PipelineStats

__all__ = ["RenderGradients", "ProjectedGradients", "backward_full",
           "reproject_gradients"]


@dataclass
class ProjectedGradients:
    """Aggregated gradients per *projected* Gaussian (2D splat space)."""

    d_mean2d: np.ndarray    # (M, 2)
    d_sigma2d: np.ndarray   # (M,)
    d_opacity: np.ndarray   # (M,)
    d_color: np.ndarray     # (M, 3)
    d_depth: np.ndarray     # (M,)

    @classmethod
    def zeros(cls, m: int) -> "ProjectedGradients":
        return cls(
            d_mean2d=np.zeros((m, 2)),
            d_sigma2d=np.zeros(m),
            d_opacity=np.zeros(m),
            d_color=np.zeros((m, 3)),
            d_depth=np.zeros(m),
        )

    def accumulate(self, indices: np.ndarray, pair) -> None:
        """Aggregation stage: scatter-add pair gradients (atomicAdd model)."""
        np.add.at(self.d_mean2d, indices, pair.d_mean2d)
        np.add.at(self.d_sigma2d, indices, pair.d_sigma2d)
        np.add.at(self.d_opacity, indices, pair.d_opacity)
        np.add.at(self.d_color, indices, pair.d_color)
        np.add.at(self.d_depth, indices, pair.d_depth)


@dataclass
class RenderGradients:
    """World-space gradients for the cloud and the camera pose."""

    d_means: np.ndarray             # (N, 3)
    d_log_scales: np.ndarray        # (N,)
    d_logit_opacities: np.ndarray   # (N,)
    d_colors: np.ndarray            # (N, 3)
    d_pose_twist: np.ndarray        # (6,) right-multiplied twist gradient
    stats: PipelineStats = field(default_factory=PipelineStats)

    def as_cloud_vector(self) -> np.ndarray:
        """Flatten map gradients in :meth:`GaussianCloud.pack` order."""
        return np.concatenate([
            self.d_means.ravel(),
            self.d_log_scales,
            self.d_logit_opacities,
            self.d_colors.ravel(),
        ])


def reproject_gradients(
    proj: ProjectedGaussians,
    cloud: GaussianCloud,
    camera: Camera,
    pg: ProjectedGradients,
) -> RenderGradients:
    """Re-projection stage: 2D splat gradients -> world-space gradients.

    Uses the projection Jacobians of ``u = fx x/z + cx``, ``v = fy y/z + cy``
    and ``sigma = f s / z`` plus the direct depth-channel gradient on ``z``.
    """
    intr = camera.intrinsics
    n = len(cloud)
    out = RenderGradients(
        d_means=np.zeros((n, 3)),
        d_log_scales=np.zeros(n),
        d_logit_opacities=np.zeros(n),
        d_colors=np.zeros((n, 3)),
        d_pose_twist=np.zeros(6),
    )
    if len(proj) == 0:
        return out

    x, y, z = proj.p_cam[:, 0], proj.p_cam[:, 1], proj.p_cam[:, 2]
    mean_focal = 0.5 * (intr.fx + intr.fy)
    scales = np.exp(cloud.log_scales[proj.source_index])

    d_u = pg.d_mean2d[:, 0]
    d_v = pg.d_mean2d[:, 1]
    d_x = d_u * intr.fx / z
    d_y = d_v * intr.fy / z
    d_z = (
        -d_u * intr.fx * x / (z * z)
        - d_v * intr.fy * y / (z * z)
        - pg.d_sigma2d * mean_focal * scales / (z * z)
        + pg.d_depth
    )
    d_p_cam = np.stack([d_x, d_y, d_z], axis=-1)

    # World-space mean gradients: d mu = R_w2c^T d p_cam.
    R_w2c = camera.pose_w2c[:3, :3]
    d_means_proj = d_p_cam @ R_w2c

    # sigma = f * s / z and s = exp(log_s) give d log_s = d_sigma * sigma.
    d_log_scales_proj = pg.d_sigma2d * proj.sigma2d

    op = proj.opacity
    d_logit_proj = pg.d_opacity * op * (1.0 - op)

    # Colors were clamped to [0, 1] at projection; gate the gradient there.
    raw_color = cloud.colors[proj.source_index]
    gate = ((raw_color > 0.0) & (raw_color < 1.0)) | (
        (raw_color <= 0.0) & (pg.d_color < 0.0)) | (
        (raw_color >= 1.0) & (pg.d_color > 0.0))
    d_color_proj = np.where(gate, pg.d_color, 0.0)

    np.add.at(out.d_means, proj.source_index, d_means_proj)
    np.add.at(out.d_log_scales, proj.source_index, d_log_scales_proj)
    np.add.at(out.d_logit_opacities, proj.source_index, d_logit_proj)
    np.add.at(out.d_colors, proj.source_index, d_color_proj)

    # Camera twist gradient (right-multiplicative update T <- T exp(xi)).
    J = point_jacobian_wrt_twist(proj.p_cam)       # (M, 3, 6)
    out.d_pose_twist = np.einsum("mij,mi->j", J, d_p_cam)
    return out


def backward_full(
    result: RenderResult,
    cloud: GaussianCloud,
    camera: Camera,
    d_color: np.ndarray,
    d_depth: np.ndarray,
    d_silhouette: np.ndarray,
) -> RenderGradients:
    """Run the complete tile-pipeline backward pass.

    ``d_color`` is ``(H, W, 3)``; ``d_depth`` and ``d_silhouette`` are
    ``(H, W)`` (pass zeros for unused channels).  The forward pass must
    have been run with ``keep_cache=True``; otherwise every gradient is
    zero.

    Pair gradients come from the engine's
    :func:`~repro.render.kernels.vectorized.pair_gradients`, one pixel
    block at a time, and aggregate in two stages that reproduce the
    per-tile loop's float additions exactly:

    1. ``np.add.at`` into one accumulator per (tile, list slot), in pixel
       order — the sequential pixel sum a tile's reverse pass takes per
       list entry;
    2. ``np.add.at`` of the slot accumulators into the per-Gaussian
       gradients, in tile order — the tile loop's scatter sequence.

    A single pixel-major scatter would add the same terms in another
    order, which differs in the last bits.
    """
    proj = result.proj
    pg = ProjectedGradients.zeros(len(proj))
    stats = PipelineStats(
        pipeline="tile",
        tile_size=result.grid.tile_size,
        image_width=result.grid.width,
        image_height=result.grid.height,
        num_gaussians=len(cloud),
        num_projected=len(proj),
        num_pixels=result.grid.width * result.grid.height,
        record_per_pixel=result.stats.record_per_pixel,
    )

    with trace.span("render.tile_bwd", pipeline="tile",
                    gaussians=len(cloud)):
        if result.blocks is not None:
            _tile_backward(result, d_color, d_depth, d_silhouette, pg, stats)
        with trace.span("render.reproject"):
            grads = reproject_gradients(proj, cloud, camera, pg)
    grads.stats = stats
    return grads


def _tile_backward(result, d_color, d_depth, d_silhouette, pg, stats):
    """Reverse rasterization + aggregation over the forward's pixel blocks
    (fills ``pg`` and the counters of ``stats``)."""
    proj = result.proj
    u, v = result.pixels[:, 0], result.pixels[:, 1]
    d_color, d_depth, d_silhouette = (d_color[v, u], d_depth[v, u],
                                      d_silhouette[v, u])
    slot_gaussians = np.concatenate(result.sorted_lists)
    slots = ProjectedGradients.zeros(slot_gaussians.size)
    touched = np.zeros(len(u), dtype=np.int64)
    ids = []
    for b in result.blocks:
        pair = pair_gradients(b.cache, proj, d_color[b.lo:b.hi],
                              d_depth[b.lo:b.hi], d_silhouette[b.lo:b.hi])
        slots.accumulate(b.slots, pair)
        touched[b.lo:b.hi] = pair.touched
        if stats.record_per_pixel:
            ids.append(proj.source_index[b.cache.gss[pair.contrib_flat]])
    pg.accumulate(slot_gaussians, slots)

    # The tile backward re-runs alpha-checking against the cached
    # tile-Gaussian sorted list (Sec. II-B): every pixel of a tile with a
    # non-empty list, against the whole list.
    n_g = np.array([len(lst) for lst in result.sorted_lists])
    n_px = np.bincount(result.pixel_tiles, minlength=n_g.size)
    live = n_g[result.pixel_tiles] > 0
    stats.num_candidate_pairs += int((n_px * n_g).sum())
    stats.num_alpha_checks += int((n_px * n_g).sum())
    stats.num_contrib_pairs += int(touched.sum())
    stats.num_atomic_adds += int(touched.sum())
    if _atlas_mod.current.active:
        _atlas_mod.current.observe_tile_backward(result.pixels[live],
                                                 touched[live])
    if stats.record_per_pixel:
        stats.tile_work.extend(tile_work_records(
            result.blocks, n_g, n_px, result.pixel_tiles))
        stats.per_pixel_contribs.extend(touched[live].tolist())
        per_pixel = np.split(np.concatenate(ids) if ids else np.zeros(0, int),
                             np.cumsum(touched)[:-1])
        stats.pixel_contrib_ids.extend(
            per_pixel[k] for k in np.flatnonzero(live))
