"""Pixel-based rendering pipeline (Sec. IV-B, the paper's second contribution).

Instead of amortizing projection/sorting across the pixels of a tile, every
*sampled* pixel owns its pipeline:

1. **Per-pixel projection with preemptive α-checking** — each projected
   Gaussian's bounding box is tested against the sampled pixels (the
   accelerator does this with direct index arithmetic, see
   :func:`bbox_candidate_ranges`), and α is evaluated immediately.  Only
   pairs with ``alpha >= threshold`` survive, so rasterization never
   α-checks again and there is no warp divergence.
2. **Per-pixel depth sort** of the surviving short list.
3. **Gaussian-parallel rasterization** — a warp co-renders one pixel; the
   partial colors are reduced.  Numerically this is Eqn. 1 again, so the
   output is bit-identical to the tile pipeline at the sampled locations.

The backward pass reuses the per-pixel sorted list and the cached ``Gamma``
/ prefix-color values from the forward pass (the accelerator stores them in
the rasterization engine's double buffer), computes partial gradients in
parallel, and aggregates them per Gaussian.

This module orchestrates the *stages* — candidate generation over a
flattened CSR-style (pixel, Gaussian) pair list, the shared preemptive-α
filter, and counter accounting — and dispatches sort + composite +
backward to the batched ``"vectorized"`` kernel
(:mod:`repro.render.kernels`).  Tests select the per-pixel ``"reference"``
oracle loop by name through ``backend=``; the two are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..obs import trace
from ..obs import atlas as _atlas_mod
from ..render.backward import (
    ProjectedGradients,
    RenderGradients,
    reproject_gradients,
)
from ..render.compositing import (
    ALPHA_THRESHOLD,
    T_MIN,
    CompositeCache,
)
from ..render.cache import RenderCache
from ..render.kernels import get_kernel, resolve_backend
from ..render.kernels.candidates import (
    CandidatePairs,
    candidate_pairs,
    lattice_pair_arrays,
)
from ..render.kernels.vectorized import FlatCompositeCache, evaluate_alpha
from ..render.projection import ProjectedGaussians, project_gaussians
from ..render.stats import PipelineStats

__all__ = ["SparseRenderResult", "render_sparse", "backward_sparse",
           "bbox_candidate_ranges"]

DEFAULT_BACKGROUND = np.zeros(3)


@dataclass
class SparseRenderResult:
    """Output of a sparse pixel-based forward pass over K sampled pixels."""

    pixels: np.ndarray       # (K, 2) integer (u, v), row-major sorted
    color: np.ndarray        # (K, 3)
    depth: np.ndarray        # (K,)
    silhouette: np.ndarray   # (K,)
    proj: ProjectedGaussians
    pixel_lists: List[np.ndarray]          # per-pixel sorted proj indices
    caches: List[Optional[CompositeCache]]
    stats: PipelineStats
    # Which kernel backend produced this result; the backward pass must
    # use the same one (the cache layouts differ).
    backend: str
    # Vectorized backend only: the padded whole-batch composite cache
    # (per-pixel ``caches`` entries stay None in that backend).
    flat_cache: Optional[FlatCompositeCache] = None

    @property
    def final_transmittance(self) -> np.ndarray:
        return 1.0 - self.silhouette

    def scatter(self, height: int, width: int,
                background: Optional[np.ndarray] = None):
        """Place the sparse outputs into dense maps (for visualization)."""
        bg = DEFAULT_BACKGROUND if background is None else background
        color = np.tile(np.asarray(bg, float), (height, width, 1))
        depth = np.zeros((height, width))
        sil = np.zeros((height, width))
        u, v = self.pixels[:, 0], self.pixels[:, 1]
        color[v, u] = self.color
        depth[v, u] = self.depth
        sil[v, u] = self.silhouette
        return color, depth, sil


def bbox_candidate_ranges(pixels: np.ndarray, bbox: np.ndarray,
                          tile: int, width: int) -> List[np.ndarray]:
    """Direct-indexing candidate generation of the projection unit (Sec. V-C).

    With one sampled pixel per ``tile x tile`` region stored row-major, the
    sampled-pixel list index of any pixel is a pure function of its tile
    coordinates.  For each Gaussian the four bbox corners therefore bound a
    *contiguous 2D index range* in the sampled-pixel lattice — no scan of
    the whole pixel list is needed.  Fully vectorized: the tile ranges of
    all Gaussians are expanded with index arithmetic in one shot (see
    :func:`repro.render.kernels.candidates.lattice_pair_arrays`).

    Returns, per Gaussian, the indices into ``pixels`` whose coordinates
    fall inside its bounding box.  ``pixels`` must be the row-major sorted
    one-per-tile lattice produced by ``sample_tracking_pixels``.
    """
    pixels = np.asarray(pixels, dtype=int)
    bbox = np.asarray(bbox, dtype=float)
    k, g = lattice_pair_arrays(pixels, bbox, tile, width)
    counts = np.bincount(g, minlength=bbox.shape[0])
    return np.split(k, np.cumsum(counts)[:-1])


def render_sparse(
    cloud: GaussianCloud,
    camera: Camera,
    pixels: np.ndarray,
    background: Optional[np.ndarray] = None,
    alpha_threshold: float = ALPHA_THRESHOLD,
    t_min: float = T_MIN,
    keep_cache: bool = True,
    preemptive_alpha: bool = True,
    exp_fn=np.exp,
    backend: Optional[str] = None,
    lattice_tile: Optional[int] = None,
    record_per_pixel: bool = True,
    cache: Optional[RenderCache] = None,
) -> SparseRenderResult:
    """Render only the sampled ``pixels`` with the pixel-based pipeline.

    ``preemptive_alpha=False`` is an ablation switch: candidates are then
    filtered only by the bounding box, and α-checking happens inside
    rasterization (sorting and rasterizing the full candidate list), which
    reproduces the workload of a pipeline without the optimization.
    ``exp_fn`` substitutes an approximate exponential (LUT ablation).

    ``backend`` names the kernel: None runs the production
    ``"vectorized"`` kernel, ``"reference"`` the per-pixel oracle loop
    that tests compare it against.
    ``lattice_tile`` is a candidate-generation hint: when the pixels form
    the row-major one-per-tile lattice of that tile size (tracking's
    layout), candidates come from direct index arithmetic instead of a
    bbox scan.  ``record_per_pixel=False`` skips the per-item stats record
    lists (hardware-model replay streams); scalar counters are unaffected.

    ``cache`` is an optional :class:`repro.render.cache.RenderCache` —
    the temporal-coherence cache replaces the projection + candidate
    generation stages with an exactly revalidated cross-iteration lookup
    (bit-identical pairs/outputs; see :mod:`repro.render.cache`).  The
    logical workload counters are unaffected; the cache's own hit/miss/
    rebuild counters land in the separate ``cache_*`` stats fields.
    """
    intr = camera.intrinsics
    bg = DEFAULT_BACKGROUND if background is None else np.asarray(background, float)
    pixels = np.atleast_2d(np.asarray(pixels, dtype=int))
    K = pixels.shape[0]
    backend_name = resolve_backend(backend)
    kernel = get_kernel(backend_name)

    cached_pairs = None
    if cache is not None:
        with trace.span("render.project", pipeline="pixel", cached=True):
            proj, cached_pairs, lookup = cache.project_and_candidates(
                cloud, camera, pixels, lattice_tile=lattice_tile)
    else:
        with trace.span("render.project", pipeline="pixel"):
            proj = project_gaussians(cloud, camera)
    stats = PipelineStats(
        pipeline="pixel",
        image_width=intr.width,
        image_height=intr.height,
        num_gaussians=len(cloud),
        num_projected=len(proj),
        num_pixels=K,
        record_per_pixel=record_per_pixel,
    )
    if cache is not None:
        stats.cache_hits += int(lookup.hit)
        stats.cache_misses += int(not lookup.hit)
        stats.cache_rebuilds += int(lookup.rebuilt)
        stats.cache_active_gaussians += int(lookup.active_gaussians)

    color = np.tile(bg, (K, 1))
    depth = np.zeros(K)
    silhouette = np.zeros(K)

    if len(proj) == 0 or K == 0:
        if record_per_pixel:
            stats.per_pixel_contribs = [0] * K
        if _atlas_mod.current.active:
            _atlas_mod.current.observe_sparse_forward(
                pixels, np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                np.zeros(K, dtype=np.int64))
        return SparseRenderResult(
            pixels, color, depth, silhouette, proj,
            [np.zeros(0, dtype=int) for _ in range(K)], [None] * K, stats,
            backend=backend_name)

    centres = pixels + 0.5
    with trace.span("render.alpha_check", pipeline="pixel",
                    backend=backend_name):
        if cached_pairs is not None:
            # The cache already produced the exact pair list (pixel-major
            # canonical order, which satisfies every backend).
            pairs = cached_pairs
        else:
            pairs = candidate_pairs(
                pixels, centres, proj.bbox(),
                lattice_tile=lattice_tile, width=intr.width,
                pixel_major=kernel.needs_pixel_major_pairs)
        n_candidates = pairs.size
        stats.num_candidate_pairs += n_candidates
        # α is evaluated once per candidate either way: preemptively here,
        # or inside rasterization when the ablation disables the filter.
        stats.num_alpha_checks += n_candidates
        # The atlas bins the *pre-filter* candidate set, so its per-tile
        # α-pass rates match ``stats.alpha_pass_rate``; keep the arrays
        # before the preemptive filter replaces ``pairs``.
        atlas_pix, atlas_gss = ((pairs.pix, pairs.gss)
                                if _atlas_mod.current.active else (None, None))
        pair_alpha = pair_clipped = None
        if n_candidates and (preemptive_alpha or kernel.wants_pair_alpha):
            pair_alpha, pair_clipped = evaluate_alpha(
                proj, pairs.gss, centres[pairs.pix], exp_fn)
            if preemptive_alpha:
                keep = pair_alpha >= alpha_threshold
                pairs = CandidatePairs(pairs.pix[keep], pairs.gss[keep], K)
                pair_alpha = pair_alpha[keep]
                pair_clipped = pair_clipped[keep]
    stats.num_sort_keys += pairs.size

    contribs_out = (np.zeros(K, dtype=np.int64)
                    if _atlas_mod.current.active else None)
    with trace.span("render.composite", pipeline="pixel", pixels=K,
                    backend=backend_name):
        pixel_lists, caches, flat_cache = kernel.forward(
            proj, pairs, centres, bg, alpha_threshold, t_min, keep_cache,
            exp_fn, stats, color, depth, silhouette,
            pair_alpha=pair_alpha, pair_clipped=pair_clipped,
            contribs_out=contribs_out)
    if contribs_out is not None:
        _atlas_mod.current.observe_sparse_forward(pixels, atlas_pix, atlas_gss,
                                      contribs_out)

    return SparseRenderResult(pixels, color, depth, silhouette, proj,
                              pixel_lists, caches, stats,
                              backend=backend_name, flat_cache=flat_cache)


def backward_sparse(
    result: SparseRenderResult,
    cloud: GaussianCloud,
    camera: Camera,
    d_color: np.ndarray,
    d_depth: np.ndarray,
    d_silhouette: np.ndarray,
) -> RenderGradients:
    """Backward pass of the pixel pipeline.

    Gradients arrive per sampled pixel (``(K, 3)``, ``(K,)``, ``(K,)``).
    The per-pixel sorted lists and cached transmittances from the forward
    pass are reused — no α-rechecking, matching the accelerator's Γ/C
    double buffer (Sec. V-B).  The kernel backend that produced ``result``
    also runs its backward (the cache layouts differ per backend).
    """
    proj = result.proj
    K = result.pixels.shape[0]
    kernel = get_kernel(result.backend)
    pg = ProjectedGradients.zeros(len(proj))
    stats = PipelineStats(
        pipeline="pixel",
        image_width=result.stats.image_width,
        image_height=result.stats.image_height,
        num_gaussians=len(cloud),
        num_projected=len(proj),
        num_pixels=K,
        record_per_pixel=result.stats.record_per_pixel,
    )
    d_color = np.atleast_2d(np.asarray(d_color, dtype=float))
    d_depth = np.atleast_1d(np.asarray(d_depth, dtype=float))
    d_silhouette = np.atleast_1d(np.asarray(d_silhouette, dtype=float))

    contribs_out = (np.zeros(K, dtype=np.int64)
                    if _atlas_mod.current.active else None)
    with trace.span("render.pixel_bwd", pipeline="pixel", pixels=K,
                    backend=result.backend):
        kernel.backward(result, proj, d_color, d_depth, d_silhouette,
                        pg, stats, contribs_out=contribs_out)
        with trace.span("render.reproject", pipeline="pixel"):
            grads = reproject_gradients(proj, cloud, camera, pg)
    if contribs_out is not None:
        _atlas_mod.current.observe_sparse_backward(result.pixels, contribs_out)
    grads.stats = stats
    return grads
