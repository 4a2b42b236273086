"""Per-tile loop oracle of the dense render engine.

The tile pipeline as a plain loop over tiles: every tile composites its
rendered pixels against its whole depth-sorted list with
:func:`composite_forward`, and the backward pass runs
:func:`composite_backward` per tile and scatters each tile's summed
partials in tile order.  Slow, but trivially auditable; the equivalence
suite holds :func:`repro.render.render_full` /
:func:`repro.render.backward_full` bit-identical to it.

The backward records ``tile_work`` at the forward's ``t_min``, which is
where the tile's reverse walk stops.

:func:`tile_pairs_oracle` is the dense α stage as a plain per-tile
broadcast — every rendered pixel of a tile against its whole sorted list —
which ``rasterize._tile_pairs`` must reproduce.  :func:`axis_shared_cull`
is the numpy cull the compiled ``rasterize._tile_cull`` replaced: per
tile, ``du²`` once per pixel column and ``dv²`` once per pixel row, summed
per pixel; the compiled cull must keep its pairs, and emit the falloff
exponents of its ``d²``, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.render.backward import ProjectedGradients, reproject_gradients
from repro.render.compositing import (
    ALPHA_THRESHOLD,
    T_MIN,
    CompositeCache,
    composite_backward,
    composite_forward,
)
from repro.render.kernels.vectorized import evaluate_alpha
from repro.render.projection import ProjectedGaussians, project_gaussians
from repro.render.sorting import sort_by_depth
from repro.render.stats import PipelineStats
from repro.render.tiles import TileGrid, build_intersection_table


@dataclass
class OracleResult:
    color: np.ndarray
    depth: np.ndarray
    silhouette: np.ndarray
    proj: ProjectedGaussians
    grid: TileGrid
    sorted_lists: List[np.ndarray]
    caches: List[Optional[CompositeCache]]
    tile_pixels: List[np.ndarray]
    t_min: float
    stats: PipelineStats = field(default_factory=PipelineStats)

    @property
    def final_transmittance(self) -> np.ndarray:
        return 1.0 - self.silhouette


def tile_pairs_oracle(proj, sorted_lists, n_g, n_px, centres,
                      alpha_threshold):
    """``rasterize._tile_pairs`` by brute force: one ``(n_px, n_g)``
    :func:`evaluate_alpha` broadcast per tile over the tile-major rendered
    pixel ``centres``, the passing pairs kept tile-major, then pixel, then
    list position.  Returns flat ``(pixel, slot, gaussian, alpha,
    clipped)`` arrays."""
    slot_offsets = np.cumsum(n_g) - n_g
    px_offsets = np.cumsum(n_px) - n_px
    parts = []
    for t in np.flatnonzero((n_px > 0) & (n_g > 0)):
        idx = sorted_lists[t]
        lo = px_offsets[t]
        alpha, clipped = evaluate_alpha(
            proj, idx, centres[lo:lo + n_px[t], None, :])
        p, j = np.nonzero(alpha >= alpha_threshold)
        parts.append((lo + p, slot_offsets[t] + j, idx[j], alpha[p, j],
                      clipped[p, j]))
    if not parts:
        empty = np.zeros(0, dtype=int)
        return empty, empty, empty, np.zeros(0), np.zeros(0, dtype=bool)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def axis_shared_cull(proj, grid, sorted_lists, n_g, n_px, px, cutoff):
    """``rasterize._tile_cull`` in numpy, one tile at a time: each pair's
    ``d² = du² + dv²`` gathered from per-column and per-row terms, kept
    when ``d² <= cutoff`` of its Gaussian.  Returns flat ``(pixel, slot,
    gaussian, d2)`` arrays, tile-major, then pixel, then list position."""
    slot_offsets = np.cumsum(n_g) - n_g
    px_offsets = np.cumsum(n_px) - n_px
    mu, mv = proj.mean2d.T
    parts = []
    for t in np.flatnonzero((n_px > 0) & (n_g > 0)):
        idx = sorted_lists[t]
        lo = px_offsets[t]
        u, v = px[lo:lo + n_px[t]].T
        u0, v0, u1, v1 = grid.tile_bounds(t)
        # evaluate_alpha's du and dv (centre = pixel + 0.5), once per
        # column and row; their sum per pixel is its d2, bit for bit.
        du = (np.arange(u0, u1) + 0.5)[:, None] - mu[idx]
        dv = (np.arange(v0, v1) + 0.5)[:, None] - mv[idx]
        if n_px[t] == (u1 - u0) * (v1 - v0):
            # Every pixel of the tile, row-major: an outer sum.
            d2 = ((du * du)[None, :, :] + (dv * dv)[:, None, :]).reshape(
                n_px[t], idx.size)
        else:
            d2 = (du * du)[u - u0]
            d2 += (dv * dv)[v - v0]
        f = np.flatnonzero(d2 <= cutoff[idx])
        p, j = np.divmod(f, idx.size)
        parts.append((lo + p, slot_offsets[t] + j, idx[j], d2.ravel()[f]))
    if not parts:
        empty = np.zeros(0, dtype=int)
        return empty, empty, empty, np.zeros(0)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def render_full_oracle(cloud, camera, background=None, tile_size=16,
                       alpha_threshold=ALPHA_THRESHOLD, t_min=T_MIN,
                       keep_cache=True, pixels=None, record_per_pixel=True):
    """:func:`repro.render.render_full`, one tile at a time."""
    intr = camera.intrinsics
    bg = np.zeros(3) if background is None else np.asarray(background, float)
    proj = project_gaussians(cloud, camera)
    grid = TileGrid.for_intrinsics(intr, tile_size)
    table = build_intersection_table(proj, grid)
    sorted_lists = [sort_by_depth(t, proj.depth) for t in table.per_tile]

    sample_mask = None
    if pixels is not None:
        pixels = np.atleast_2d(np.asarray(pixels, dtype=int))
        sample_mask = np.zeros((intr.height, intr.width), dtype=bool)
        sample_mask[pixels[:, 1], pixels[:, 0]] = True

    color = np.tile(bg, (intr.height, intr.width, 1))
    depth = np.zeros((intr.height, intr.width))
    silhouette = np.zeros((intr.height, intr.width))
    stats = PipelineStats(
        pipeline="tile", tile_size=tile_size, image_width=intr.width,
        image_height=intr.height, num_gaussians=len(cloud),
        num_projected=len(proj),
        num_pixels=(intr.width * intr.height if pixels is None
                    else pixels.shape[0]),
        num_tile_pairs=table.num_pairs, record_per_pixel=record_per_pixel)

    caches: List[Optional[CompositeCache]] = []
    tile_pixels: List[np.ndarray] = []
    for tile in range(grid.num_tiles):
        idx = sorted_lists[tile]
        px = grid.tile_pixels(tile)
        if sample_mask is not None:
            px = px[sample_mask[px[:, 1], px[:, 0]]]
        tile_pixels.append(px)
        if px.shape[0] == 0:
            caches.append(None)
            continue
        stats.num_sort_keys += idx.size
        if idx.size == 0:
            caches.append(None)
            if record_per_pixel:
                stats.per_pixel_contribs.extend([0] * px.shape[0])
            continue
        out_color, out_depth, out_sil, cache = composite_forward(
            px + 0.5, proj.mean2d[idx], proj.sigma2d[idx], proj.depth[idx],
            proj.opacity[idx], proj.color[idx], bg,
            alpha_threshold=alpha_threshold, t_min=t_min)
        u, v = px[:, 0], px[:, 1]
        color[v, u] = out_color
        depth[v, u] = out_depth
        silhouette[v, u] = out_sil
        n_px, n_g = px.shape[0], idx.size
        stats.num_candidate_pairs += n_px * n_g
        stats.num_alpha_checks += n_px * n_g
        contribs = cache.contrib.sum(axis=1)
        stats.num_contrib_pairs += int(contribs.sum())
        if record_per_pixel:
            serial_len = int((cache.gamma >= t_min).sum(axis=1).max())
            stats.tile_work.append((n_g, n_px, serial_len))
            stats.per_pixel_contribs.extend(int(c) for c in contribs)
        caches.append(cache if keep_cache else None)

    return OracleResult(color, depth, silhouette, proj, grid, sorted_lists,
                        caches, tile_pixels, t_min, stats)


def backward_full_oracle(result, cloud, camera, d_color, d_depth,
                         d_silhouette, pose_only=False):
    """:func:`repro.render.backward_full`, one tile at a time.
    ``pose_only`` is accepted and ignored: the oracle computes every
    gradient."""
    proj = result.proj
    pg = ProjectedGradients.zeros(len(proj))
    stats = PipelineStats(
        pipeline="tile", tile_size=result.grid.tile_size,
        image_width=result.grid.width, image_height=result.grid.height,
        num_gaussians=len(cloud), num_projected=len(proj),
        num_pixels=result.grid.width * result.grid.height,
        record_per_pixel=result.stats.record_per_pixel)
    for tile, idx in enumerate(result.sorted_lists):
        cache = result.caches[tile]
        if cache is None or idx.size == 0:
            continue
        px = result.tile_pixels[tile]
        u, v = px[:, 0], px[:, 1]
        pair = composite_backward(
            cache, proj.mean2d[idx], proj.sigma2d[idx], proj.depth[idx],
            proj.opacity[idx], proj.color[idx],
            d_color[v, u], d_depth[v, u], d_silhouette[v, u])
        pg.accumulate(idx, pair)
        stats.num_candidate_pairs += px.shape[0] * idx.size
        stats.num_alpha_checks += px.shape[0] * idx.size
        stats.num_contrib_pairs += pair.num_pairs_touched
        stats.num_atomic_adds += pair.num_pairs_touched
        if stats.record_per_pixel:
            serial_len = int((cache.gamma >= result.t_min).sum(axis=1).max())
            stats.tile_work.append((idx.size, px.shape[0], serial_len))
            stats.per_pixel_contribs.extend(
                int(c) for c in cache.contrib.sum(axis=1))
            for p in range(px.shape[0]):
                stats.pixel_contrib_ids.append(
                    proj.source_index[idx[cache.contrib[p]]])
    grads = reproject_gradients(proj, cloud, camera, pg)
    grads.stats = stats
    return grads
