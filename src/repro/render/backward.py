"""Backward pass of the tile pipeline: reverse rasterization, aggregation,
and re-projection (Fig. 3, bottom).

Reverse rasterization walks the forward pass's cached composite state and
produces the pixel-Gaussian partial gradients; *aggregation* adds them into
per-Gaussian accumulators.  Both run in one compiled kernel call per frame
(the render engine's
:func:`~repro.render.kernels.vectorized.aggregate_gradients`, shared with
the sparse pixel pipeline): the reverse-render units feed the aggregation
unit with no per-pair array in between, and the number of contributing
pairs is recorded as the atomic-contention workload.  The kernel adds into
one accumulator per (tile, list slot); one :func:`scatter_add` per
gradient column then folds the slots into the projected Gaussians.
*Re-projection* finally maps the 2D splat gradients through the projection
into world-space parameter gradients and the camera-twist gradient.  The
twist gradient is one compiled call (``reproject_twist`` in
``_native.c``); a pose-only re-projection (tracking, both pipelines)
makes only that call, and a full one (mapping, which never reads the
twist) defers it to the first read of ``d_pose_twist``.  It forms the
camera-frame gradient term for term and adds the twist Jacobian's
products in the order of ``np.einsum`` over
:func:`~repro.gaussians.se3.point_jacobian_wrt_twist`, zeros included,
so it is that einsum bit for bit (the test oracle).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..obs import trace
# composite_backward is the per-tile oracle of the engine below; it stays
# importable from this module (perfbench/layers.py wraps it here).
from .compositing import composite_backward  # noqa: F401
from .kernels import native
from .kernels.native import pointers
from .kernels.vectorized import aggregate_gradients
from .projection import ProjectedGaussians
from .rasterize import RenderResult
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


class _DeferredTwist(RenderGradients):
    """A full re-projection's gradients, whose ``d_pose_twist`` the
    compiled twist call ``twist`` computes at its first read, in a
    ``render.reproject`` span of its own: mapping, which runs the full
    pass, never reads it."""

    def __init__(self, *fields, twist=None, **named):
        super().__init__(*fields, **named)
        self._twist = twist

    @property
    def d_pose_twist(self) -> np.ndarray:
        if self._twist is not None:
            with trace.span("render.reproject"):
                self.__dict__["d_pose_twist"] = self._twist()
            self._twist = None
        return self.__dict__["d_pose_twist"]

    @d_pose_twist.setter
    def d_pose_twist(self, value) -> None:
        self._twist = None
        self.__dict__["d_pose_twist"] = value


def reproject_gradients(
    proj: ProjectedGaussians,
    cloud: GaussianCloud,
    camera: Camera,
    pg: ProjectedGradients,
    pose_only: bool = False,
) -> RenderGradients:
    """Re-projection stage: 2D splat gradients -> world-space gradients.

    Uses the projection Jacobians of ``u = fx x/z + cx``, ``v = fy y/z + cy``
    and ``sigma = f s / z`` plus the direct depth-channel gradient on ``z``;
    ``s`` is the scale the projection gathered (``proj.scale``), so no
    ``exp`` is re-evaluated here.
    ``pose_only=True`` (tracking, map fixed) computes only the camera-twist
    gradient, in one compiled call, and leaves the map fields None; it
    reads only ``pg``'s mean, sigma and depth gradients.  The full pass
    defers that call to the first read of ``d_pose_twist``; its inputs are
    checked here either way.
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

    if proj.scale is None:
        raise ValueError("reproject gradients: the projection carries no "
                         "scale")
    mean_focal = 0.5 * (intr.fx + intr.fy)
    twist = _pose_twist(proj, pg, intr, mean_focal)
    if pose_only:
        return RenderGradients(None, None, None, None, twist())
    x, y, z = proj.p_cam[:, 0], proj.p_cam[:, 1], proj.p_cam[:, 2]

    d_u = pg.d_mean2d[:, 0]
    d_v = pg.d_mean2d[:, 1]
    d_x = d_u * intr.fx / z
    d_y = d_v * intr.fy / z
    d_z = (
        -d_u * intr.fx * x / (z * z)
        - d_v * intr.fy * y / (z * z)
        - pg.d_sigma2d * mean_focal * proj.scale / (z * z)
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

    src = proj.source_index
    return _DeferredTwist(
        d_means=scatter_add(src, d_means_proj, n),
        d_log_scales=scatter_add(src, d_log_scales_proj, n),
        d_logit_opacities=scatter_add(src, d_logit_proj, n),
        d_colors=scatter_add(src, d_color_proj, n),
        d_pose_twist=None,
        twist=twist,
    )


def _pose_twist(proj, pg, intr, mean_focal):
    """The camera-twist gradient (right-multiplicative update
    ``T <- T exp(xi)``): the shapes are checked here, and the returned
    function computes it in one compiled call (``reproject_twist``)."""
    m = len(proj)
    if (proj.p_cam.shape != (m, 3) or proj.scale.shape != (m,)
            or pg.d_mean2d.shape != (m, 2) or pg.d_sigma2d.shape != (m,)
            or pg.d_depth.shape != (m,)):
        raise ValueError("reproject gradients: projected centres, scales or "
                         "gradients have the wrong shape")

    def twist():
        out = (ctypes.c_double * 6)()
        native.library().reproject_twist(
            m, *pointers(proj, ("p_cam", "scale")),
            *pointers(pg, ("d_mean2d", "d_sigma2d", "d_depth")), intr.fx,
            intr.fy, mean_focal, out)
        return np.array(out)

    return twist


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
    zero.  ``pose_only=True`` (tracking) skips the opacity and colour
    partials and re-projects only the camera-twist gradient; see
    :func:`reproject_gradients`.

    Pair gradients aggregate in two stages that reproduce the per-tile
    loop's float additions exactly:

    1. :func:`~repro.render.kernels.vectorized.aggregate_gradients`, one
       kernel call per frame, adds each pair's partials onto one
       accumulator per (tile, list slot), starting from zero, in pixel
       order — the sequential pixel sum a tile's reverse pass takes per
       list entry;
    2. one :func:`scatter_add` per gradient column folds the slot
       accumulators into the per-Gaussian gradients, in tile order — the
       tile loop's scatter sequence.

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
        if result.slots is not None:
            pg = _tile_backward(result, d_color, d_depth, d_silhouette,
                                stats, pose_only)
        else:
            pg = ProjectedGradients.zeros(len(proj))
        with trace.span("render.reproject"):
            grads = reproject_gradients(proj, cloud, camera, pg,
                                        pose_only=pose_only)
    grads.stats = stats
    return grads


def _tile_backward(result, d_color, d_depth, d_silhouette, stats,
                   pose_only):
    """Reverse rasterization + aggregation over the forward's frame-wide
    composite cache; returns the per-Gaussian :class:`ProjectedGradients`
    and fills the counters of ``stats``.  ``pose_only`` leaves the opacity
    and colour gradients zero."""
    proj, cache = result.proj, result.cache
    n_g, px_tiles = result.tile_counts, result.pixel_tiles
    pg = ProjectedGradients.zeros(len(proj))
    touched = np.zeros(px_tiles.size, dtype=np.int64)
    ids = np.zeros(0, dtype=int)
    if cache is not None:
        u, v = result.pixels[:, 0], result.pixels[:, 1]
        slots = ProjectedGradients.zeros(result.sorted_gss.size)
        aggregate_gradients(cache, proj, d_color[v, u], d_depth[v, u],
                            d_silhouette[v, u], result.slots, slots,
                            pose_only)
        names = ("d_mean2d", "d_sigma2d", "d_depth") + (
            () if pose_only else ("d_opacity", "d_color"))
        for name in names:
            setattr(pg, name, scatter_add(result.sorted_gss,
                                          getattr(slots, name), len(proj)))
        touched = cache.touched
        if stats.record_per_pixel:
            ids = proj.source_index[cache.gss[cache.contrib]]

    # The tile backward re-runs alpha-checking against the cached
    # tile-Gaussian sorted list (Sec. II-B): every pixel of a tile with a
    # non-empty list, against the whole list.
    n_px = np.bincount(px_tiles, minlength=n_g.size)
    live = n_g[px_tiles] > 0
    stats.num_candidate_pairs += int((n_px * n_g).sum())
    stats.num_alpha_checks += int((n_px * n_g).sum())
    stats.num_contrib_pairs += int(touched.sum())
    stats.num_atomic_adds += int(touched.sum())
    if stats.record_per_pixel:
        # The reverse walk stops where the forward's did.
        stats.tile_work.extend(result.stats.tile_work)
        stats.per_pixel_contribs.extend(touched[live].tolist())
        per_pixel = np.split(ids, np.cumsum(touched)[:-1])
        stats.pixel_contrib_ids.extend(
            per_pixel[k] for k in np.flatnonzero(live))
    return pg
