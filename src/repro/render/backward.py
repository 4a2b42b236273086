"""Backward pass of the tile pipeline: reverse rasterization, aggregation,
and re-projection (Fig. 3, bottom).

Reverse rasterization walks the forward pass's cached composite blocks and
produces the pixel-Gaussian partial gradients (the render engine's
``pair_gradients`` stage, shared with the sparse pixel pipeline);
*aggregation* scatters them into per-Gaussian accumulators
(:func:`scatter_add` plays the role of ``atomicAdd`` and the number of
contributing pairs is recorded as the atomic-contention workload);
*re-projection* finally maps the 2D splat gradients through the projection
into world-space parameter gradients and, for tracking, the camera-twist
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
           "reproject_gradients", "scatter_add"]


def scatter_add(idx: np.ndarray, values, n: int) -> np.ndarray:
    """Aggregation stage: a freshly zeroed ``(n, ...)`` scatter-add.

    Row ``i`` of ``values`` is added to row ``idx[i]`` of the result, in
    input order; every index must be below ``n``.  ``values`` is a
    ``(P, ...)`` array or a sequence of ``k`` contiguous ``(P,)`` columns,
    which gives an ``(n, k)`` result.  Each column is one
    ``np.bincount(idx, column, minlength=n)``, which adds its weights in
    input order into zeros — the float sequence ``np.add.at`` performs
    onto zeros, so the result is bit-identical to it, ``-0.0``, ±inf and
    NaN included, at a fraction of its cost.
    """
    if not isinstance(values, np.ndarray):
        columns, shape = values, (len(values),)
    elif values.ndim == 1:
        # An empty ``idx`` makes bincount return int zeros.
        return np.bincount(idx, values, minlength=n).astype(float, copy=False)
    else:
        shape = values.shape[1:]
        columns = values.reshape(values.shape[0], int(np.prod(shape))).T
    out = np.empty((n, len(columns)))
    for c, column in enumerate(columns):
        out[:, c] = np.bincount(idx, column, minlength=n)
    return out.reshape((n,) + shape)


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

    @classmethod
    def scatter(cls, indices: np.ndarray, pair,
                m: int) -> "ProjectedGradients":
        """Aggregation stage: pair gradients scatter-added into fresh zeros
        with :func:`scatter_add` (the atomicAdd model)."""
        return cls(
            d_mean2d=scatter_add(indices, pair.d_mean2d, m),
            d_sigma2d=scatter_add(indices, pair.d_sigma2d, m),
            d_opacity=scatter_add(indices, pair.d_opacity, m),
            d_color=scatter_add(indices, pair.d_color, m),
            d_depth=scatter_add(indices, pair.d_depth, m),
        )

    def accumulate(self, indices: np.ndarray, pair) -> None:
        """Scatter-add pair gradients onto the running accumulators with
        ``np.add.at``, one pixel or tile at a time — the oracles' form of
        aggregation."""
        np.add.at(self.d_mean2d, indices, pair.d_mean2d)
        np.add.at(self.d_sigma2d, indices, pair.d_sigma2d)
        np.add.at(self.d_opacity, indices, pair.d_opacity)
        np.add.at(self.d_color, indices, pair.d_color)
        np.add.at(self.d_depth, indices, pair.d_depth)


@dataclass
class RenderGradients:
    """World-space gradients for the cloud and the camera pose.

    A pose-only reverse pass (tracking) leaves the four map fields None.
    """

    d_means: Optional[np.ndarray]             # (N, 3)
    d_log_scales: Optional[np.ndarray]        # (N,)
    d_logit_opacities: Optional[np.ndarray]   # (N,)
    d_colors: Optional[np.ndarray]            # (N, 3)
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
    pose_only: bool = False,
) -> RenderGradients:
    """Re-projection stage: 2D splat gradients -> world-space gradients.

    Uses the projection Jacobians of ``u = fx x/z + cx``, ``v = fy y/z + cy``
    and ``sigma = f s / z`` plus the direct depth-channel gradient on ``z``.
    ``pose_only=True`` (tracking, map fixed) computes only the camera-twist
    gradient and leaves the map fields None; it reads only ``pg``'s
    mean, sigma and depth gradients.
    """
    intr = camera.intrinsics
    n = len(cloud)
    if len(proj) == 0:
        if pose_only:
            return RenderGradients(None, None, None, None, np.zeros(6))
        return RenderGradients(
            d_means=np.zeros((n, 3)),
            d_log_scales=np.zeros(n),
            d_logit_opacities=np.zeros(n),
            d_colors=np.zeros((n, 3)),
            d_pose_twist=np.zeros(6),
        )

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
    # Camera twist gradient (right-multiplicative update T <- T exp(xi)).
    J = point_jacobian_wrt_twist(proj.p_cam)       # (M, 3, 6)
    d_pose_twist = np.einsum("mij,mi->j", J, d_p_cam)
    if pose_only:
        return RenderGradients(None, None, None, None, d_pose_twist)

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

    src = proj.source_index
    return RenderGradients(
        d_means=scatter_add(src, d_means_proj, n),
        d_log_scales=scatter_add(src, d_log_scales_proj, n),
        d_logit_opacities=scatter_add(src, d_logit_proj, n),
        d_colors=scatter_add(src, d_color_proj, n),
        d_pose_twist=d_pose_twist,
    )


def backward_full(
    result: RenderResult,
    cloud: GaussianCloud,
    camera: Camera,
    d_color: np.ndarray,
    d_depth: np.ndarray,
    d_silhouette: np.ndarray,
    pose_only: bool = False,
) -> RenderGradients:
    """Run the complete tile-pipeline backward pass.

    ``d_color`` is ``(H, W, 3)``; ``d_depth`` and ``d_silhouette`` are
    ``(H, W)`` (pass zeros for unused channels).  The forward pass must
    have been run with ``keep_cache=True``; otherwise every gradient is
    zero.  ``pose_only=True`` (tracking) re-projects only the camera-twist
    gradient; see :func:`reproject_gradients`.

    Pair gradients come from the engine's
    :func:`~repro.render.kernels.vectorized.pair_gradients`, one pixel
    block at a time, and aggregate in two stages of :func:`scatter_add`
    that reproduce the per-tile loop's float additions exactly:

    1. per block, into one fresh accumulator per (tile, list slot), in
       pixel order — the sequential pixel sum a tile's reverse pass takes
       per list entry.  Blocks hold whole tiles, so no accumulator spans
       two blocks and each block owns a contiguous slot range;
    2. the slot accumulators into the per-Gaussian gradients, in tile
       order — the tile loop's scatter sequence.

    A single pixel-major scatter would add the same terms in another
    order, which differs in the last bits.
    """
    proj = result.proj
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
            pg = _tile_backward(result, d_color, d_depth, d_silhouette, stats)
        else:
            pg = ProjectedGradients.zeros(len(proj))
        with trace.span("render.reproject"):
            grads = reproject_gradients(proj, cloud, camera, pg,
                                        pose_only=pose_only)
    grads.stats = stats
    return grads


def _tile_backward(result, d_color, d_depth, d_silhouette, stats):
    """Reverse rasterization + aggregation over the forward's pixel blocks;
    returns the per-Gaussian :class:`ProjectedGradients` and fills the
    counters of ``stats``."""
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
        lo, hi = b.slots.min(), b.slots.max() + 1
        block = ProjectedGradients.scatter(b.slots - lo, pair, hi - lo)
        for name, value in vars(block).items():
            getattr(slots, name)[lo:hi] = value
        touched[b.lo:b.hi] = pair.touched
        if stats.record_per_pixel:
            ids.append(proj.source_index[b.cache.gss[pair.contrib_flat]])
    pg = ProjectedGradients.scatter(slot_gaussians, slots, len(proj))

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
    return pg
