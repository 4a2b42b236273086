"""Workload descriptors bridging the renderers and the hardware models.

A :class:`Workload` bundles the forward- and backward-pass counters of one
(or several accumulated) training iterations.  The hardware models consume
only this — they never touch pixels — which mirrors how the paper's
performance models are driven by kernel instrumentation counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.pixel_pipeline import backward_sparse, render_sparse
from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..render.backward import backward_full
from ..render.rasterize import render_full
from ..render.stats import PipelineStats

__all__ = ["Workload", "measure_iteration"]


def _upscale_stats(stats: PipelineStats, pixel_factor: float,
                   gaussian_factor: float) -> PipelineStats:
    """Scale one pass's counters (see :meth:`Workload.upscale`)."""
    fp, fg = float(pixel_factor), float(gaussian_factor)
    rep = max(1, int(round(fp)))
    scale_side = np.sqrt(fp)
    return PipelineStats(
        pipeline=stats.pipeline,
        tile_size=stats.tile_size,
        record_per_pixel=stats.record_per_pixel,
        image_width=int(round(stats.image_width * scale_side)),
        image_height=int(round(stats.image_height * scale_side)),
        num_gaussians=int(stats.num_gaussians * fg),
        num_projected=int(stats.num_projected * fg),
        num_pixels=int(stats.num_pixels * fp),
        num_tile_pairs=int(stats.num_tile_pairs * fp),
        num_candidate_pairs=int(stats.num_candidate_pairs * fp),
        num_contrib_pairs=int(stats.num_contrib_pairs * fp),
        num_sort_keys=int(stats.num_sort_keys * fp),
        num_alpha_checks=int(stats.num_alpha_checks * fp),
        num_atomic_adds=int(stats.num_atomic_adds * fp),
        per_pixel_contribs=list(stats.per_pixel_contribs) * rep,
        tile_work=list(stats.tile_work) * rep,
        pixel_list_lengths=list(stats.pixel_list_lengths) * rep,
        # ID streams stay at proxy resolution (see PipelineStats docs).
        pixel_contrib_ids=list(stats.pixel_contrib_ids),
    )


@dataclass
class Workload:
    """Counters of one rendering+training iteration (or an accumulation)."""

    name: str
    fwd: PipelineStats
    bwd: PipelineStats
    iterations: int = 1

    @property
    def pipeline(self) -> str:
        return self.fwd.pipeline

    def scaled(self, iterations: int) -> "Workload":
        """Reinterpret this workload as repeated ``iterations`` times.

        Counter totals are *not* multiplied — the hardware models report
        per-iteration latency from totals / iterations — so this simply
        adjusts the amortization denominator.
        """
        return Workload(self.name, self.fwd, self.bwd,
                        iterations=self.iterations * iterations)

    def upscale(self, pixel_factor: float, gaussian_factor: float) -> "Workload":
        """Project this proxy-resolution workload to a larger deployment.

        The experiments render small frames over small maps; the paper's
        setup is 1200x680 frames over million-Gaussian maps.  Pixel-coupled
        counters (pairs, α-checks, atomics, per-pixel records) scale with
        ``pixel_factor``; Gaussian-coupled counters (projection, tile-table
        size, re-projection) scale with ``gaussian_factor``.  Per-pixel
        depth complexity — the length of each pixel's contributing list —
        is resolution-independent and is kept, which is why per-pixel /
        per-tile records are *replicated*, not stretched.
        """
        return Workload(
            name=self.name,
            fwd=_upscale_stats(self.fwd, pixel_factor, gaussian_factor),
            bwd=_upscale_stats(self.bwd, pixel_factor, gaussian_factor),
            iterations=self.iterations,
        )


def measure_iteration(
    cloud: GaussianCloud,
    camera: Camera,
    ref_color: np.ndarray,
    ref_depth: np.ndarray,
    mode: str = "pixel",
    pixels: Optional[np.ndarray] = None,
    background: Optional[np.ndarray] = None,
    name: Optional[str] = None,
    record_per_pixel: bool = True,
) -> Workload:
    """Run one fwd+bwd iteration and capture its workload counters.

    ``mode`` selects the pipeline: ``"tile"`` (dense), ``"tile_sparse"``
    (Org.+S: sparse pixels through the tile pipeline, requires ``pixels``),
    or ``"pixel"`` (the SPLATONIC pipeline, requires ``pixels``).
    A unit photometric+depth gradient is used — the hardware models only
    read counters, not values.  ``record_per_pixel=False`` drops the
    per-item record lists (the hardware-model replay streams need them,
    so the default keeps them).
    """
    from ..slam.losses import LossConfig, rgbd_loss

    bg = np.zeros(3) if background is None else background
    cfg = LossConfig()

    if mode == "tile":
        result = render_full(cloud, camera, bg,
                             record_per_pixel=record_per_pixel)
        h, w = result.depth.shape
        out = rgbd_loss(result.color.reshape(-1, 3), result.depth.ravel(),
                        result.silhouette.ravel(),
                        ref_color.reshape(-1, 3), ref_depth.ravel(),
                        cfg, tracking=False)
        grads = backward_full(result, cloud, camera,
                              out.d_color.reshape(h, w, 3),
                              out.d_depth.reshape(h, w),
                              out.d_silhouette.reshape(h, w))
    elif mode == "tile_sparse":
        if pixels is None:
            raise ValueError("tile_sparse mode needs pixels")
        result = render_full(cloud, camera, bg, pixels=pixels,
                             record_per_pixel=record_per_pixel)
        h, w = result.depth.shape
        out = rgbd_loss(result.color.reshape(-1, 3), result.depth.ravel(),
                        result.silhouette.ravel(),
                        ref_color.reshape(-1, 3), ref_depth.ravel(),
                        cfg, tracking=False)
        grads = backward_full(result, cloud, camera,
                              out.d_color.reshape(h, w, 3),
                              out.d_depth.reshape(h, w),
                              out.d_silhouette.reshape(h, w))
    elif mode == "pixel":
        if pixels is None:
            raise ValueError("pixel mode needs pixels")
        result = render_sparse(cloud, camera, pixels, bg,
                               record_per_pixel=record_per_pixel)
        ref_c = ref_color[pixels[:, 1], pixels[:, 0]]
        ref_d = ref_depth[pixels[:, 1], pixels[:, 0]]
        out = rgbd_loss(result.color, result.depth, result.silhouette,
                        ref_c, ref_d, cfg, tracking=False)
        grads = backward_sparse(result, cloud, camera, out.d_color,
                                out.d_depth, out.d_silhouette)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return Workload(name=name or mode, fwd=result.stats, bwd=grads.stats)
