"""Tile-based forward rendering (the conventional 3DGS pipeline of Fig. 3).

``render_full`` runs projection -> tile intersection -> per-tile depth sort
-> rasterization, producing color / depth / silhouette maps and the
workload counters the hardware models consume.

Rasterization runs on the render engine the sparse pixel pipeline uses
(:mod:`repro.render.kernels.vectorized`), fed from the tile table:

- *candidates*: every rendered pixel of a tile x every Gaussian in that
  tile's list, α-checked with one broadcast per tile exactly as the tile
  pipeline α-checks them (so ``num_candidate_pairs = Σ n_px·n_g`` and any
  ``alpha_threshold`` stays exact), then compacted to the passing pairs;
- *order*: the pairs come out tile-major, pixels row-major within a tile
  and front-to-back within a pixel — each tile's depth sort is reused for
  every pixel in it, with no per-pair sort (the redundant-sort
  elimination of GS-TG);
- *composite*: the shared :func:`~repro.render.kernels.vectorized.composite`
  stage over fixed blocks of pixels, which bounds the working set.

A pair that fails α has a transmittance factor of exactly 1.0 and a
weight of exactly 0.0 in a per-tile :func:`composite_forward`, and both
reductions are sequential, so dropping it changes no bit: the outputs are
identical to a per-tile composite loop's.  Each block's composite state is
retained so :mod:`repro.render.backward` can run the exact reverse pass
without recomputation.

Passing a sparse ``pixels`` subset reproduces the **Org.+S** baseline of
the paper: sparse pixel sampling bolted onto the tile pipeline.  Only the
sampled pixels are rasterized, but the pipeline still pays tile-level
projection, per-tile sorting (restricted, generously, to tiles containing
at least one sample), and per-tile list iteration — the structural
inefficiency Figs. 11/21 quantify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..obs import trace
from ..obs import atlas as _atlas_mod
# composite_forward is the per-tile oracle of the engine below; it stays
# importable from this module (perfbench/layers.py wraps it here).
from .compositing import (  # noqa: F401
    ALPHA_THRESHOLD,
    T_MIN,
    composite_forward,
)
from .kernels.vectorized import FlatCompositeCache, composite, evaluate_alpha
from .projection import ProjectedGaussians, project_gaussians
from .sorting import sort_intersection_table
from .stats import PipelineStats
from .tiles import TileGrid, build_intersection_table

__all__ = ["RenderResult", "PixelBlock", "render_full", "BLOCK_PIXELS"]

DEFAULT_BACKGROUND = np.zeros(3)

#: Rendered pixels per composite block.  Bounds the padded working set of
#: the forward and backward passes; results do not depend on it.
BLOCK_PIXELS = 1024


@dataclass
class PixelBlock:
    """Backward state of one block of rendered pixels ``[lo, hi)``."""

    lo: int
    hi: int
    # Per pair (block pair order): index of its (tile, list-slot)
    # accumulator — the tile's slot offset plus the list position.
    slots: np.ndarray
    cache: FlatCompositeCache


@dataclass
class RenderResult:
    """Output of a tile-based forward pass (full frame or Org.+S subset)."""

    color: np.ndarray        # (H, W, 3)
    depth: np.ndarray        # (H, W)
    silhouette: np.ndarray   # (H, W)
    proj: ProjectedGaussians
    grid: TileGrid
    sorted_lists: List[np.ndarray]      # per-tile projected-Gaussian indices
    pixels: np.ndarray       # (K, 2) rendered pixels, tile-major
    pixel_tiles: np.ndarray  # (K,) tile of each rendered pixel
    # Composite state per pixel block (blocks without a pair are left
    # out); None when rendered with ``keep_cache=False``.
    blocks: Optional[List[PixelBlock]]
    stats: PipelineStats = field(default_factory=PipelineStats)

    @property
    def final_transmittance(self) -> np.ndarray:
        """``Gamma_final`` per pixel — the mapper's unseen-pixel signal (Eqn. 2)."""
        return 1.0 - self.silhouette


def render_full(
    cloud: GaussianCloud,
    camera: Camera,
    background: Optional[np.ndarray] = None,
    tile_size: int = 16,
    alpha_threshold: float = ALPHA_THRESHOLD,
    t_min: float = T_MIN,
    keep_cache: bool = True,
    pixels: Optional[np.ndarray] = None,
    record_per_pixel: bool = True,
) -> RenderResult:
    """Render with the tile pipeline.

    Parameters
    ----------
    pixels:
        Optional ``(K, 2)`` integer pixel subset (Org.+S mode).  ``None``
        renders the full frame.
    keep_cache:
        Set ``False`` for inference-only renders to skip retaining the
        backward-pass caches.
    record_per_pixel:
        ``False`` skips the per-item stats record lists (``tile_work``,
        ``per_pixel_contribs``); scalar counters are unaffected.
    """
    intr = camera.intrinsics
    bg = DEFAULT_BACKGROUND if background is None else np.asarray(background, float)

    with trace.span("render.project"):
        proj = project_gaussians(cloud, camera)
    with trace.span("render.tile_sort"):
        grid = TileGrid.for_intrinsics(intr, tile_size)
        table = build_intersection_table(proj, grid)
        sorted_lists = sort_intersection_table(table, proj)

    if pixels is not None:
        pixels = np.atleast_2d(np.asarray(pixels, dtype=int))
    px, px_tiles = _rendered_pixels(grid, pixels)

    color = np.tile(bg, (intr.height, intr.width, 1))
    depth = np.zeros((intr.height, intr.width))
    silhouette = np.zeros((intr.height, intr.width))

    stats = PipelineStats(
        pipeline="tile",
        tile_size=tile_size,
        image_width=intr.width,
        image_height=intr.height,
        num_gaussians=len(cloud),
        num_projected=len(proj),
        num_pixels=(intr.width * intr.height if pixels is None
                    else pixels.shape[0]),
        num_tile_pairs=table.num_pairs,
        record_per_pixel=record_per_pixel,
    )

    with trace.span("render.composite", pipeline="tile",
                    tiles=grid.num_tiles):
        n_g = table.tile_counts()
        n_px = np.bincount(px_tiles, minlength=grid.num_tiles)
        centres = px + 0.5
        pix, slots, gss, alpha, clipped = _tile_pairs(
            proj, sorted_lists, n_g, n_px, centres, alpha_threshold)
        lengths = np.bincount(pix, minlength=px.shape[0])
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        blocks: List[PixelBlock] = []
        contribs = np.zeros(px.shape[0], dtype=np.int64)
        for lo in range(0, px.shape[0], BLOCK_PIXELS):
            hi = min(lo + BLOCK_PIXELS, px.shape[0])
            p0, p1 = offsets[lo], offsets[hi]
            out_color, out_depth, out_sil, cache = composite(
                proj, gss[p0:p1], lengths[lo:hi], centres[lo:hi], bg,
                alpha[p0:p1], clipped[p0:p1], alpha_threshold, t_min)
            u, v = px[lo:hi, 0], px[lo:hi, 1]
            color[v, u] = out_color
            depth[v, u] = out_depth
            silhouette[v, u] = out_sil
            if cache is not None:
                contribs[lo:hi] = cache.contrib.sum(axis=1)
                blocks.append(PixelBlock(lo, hi, slots[p0:p1], cache))

        # Sorting is charged only for tiles that render at least one pixel
        # (a generous accounting for the Org.+S baseline); every rendered
        # pixel α-checks its tile's whole list.
        stats.num_sort_keys += int(n_g[n_px > 0].sum())
        stats.num_candidate_pairs += int((n_px * n_g).sum())
        stats.num_alpha_checks += int((n_px * n_g).sum())
        stats.num_contrib_pairs += int(contribs.sum())
        if _atlas_mod.current.active:
            _atlas_mod.current.observe_tile_forward(px, px_tiles,
                                                    n_g[px_tiles], contribs)
        if record_per_pixel:
            stats.tile_work.extend(
                tile_work_records(blocks, n_g, n_px, px_tiles))
            stats.per_pixel_contribs.extend(contribs.tolist())

    return RenderResult(
        color=color,
        depth=depth,
        silhouette=silhouette,
        proj=proj,
        grid=grid,
        sorted_lists=sorted_lists,
        pixels=px,
        pixel_tiles=px_tiles,
        blocks=blocks if keep_cache else None,
        stats=stats,
    )


def _rendered_pixels(grid: TileGrid, pixels: Optional[np.ndarray]):
    """The pixels to rasterize, tile-major and row-major within a tile,
    with their tiles.  A ``pixels`` subset is deduplicated."""
    if pixels is None:
        v, u = np.divmod(np.arange(grid.width * grid.height), grid.width)
    else:
        mask = np.zeros((grid.height, grid.width), dtype=bool)
        mask[pixels[:, 1], pixels[:, 0]] = True
        v, u = np.nonzero(mask)
    tiles = grid.tile_of_pixel(u, v)
    order = np.argsort(tiles, kind="stable")
    return np.stack([u[order], v[order]], axis=-1), tiles[order]


def _tile_pairs(proj, sorted_lists, n_g, n_px, centres, alpha_threshold):
    """Candidate + α stage of the dense pipeline.

    Broadcasts each tile's rendered pixels against its sorted list with
    the engine's α expression and keeps the passing pairs in emission
    order: tile-major, then pixel, then list position.  Returns flat
    ``(pixel, slot, gaussian, alpha, clipped)`` arrays.
    """
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


def tile_work_records(blocks, n_g, n_px, px_tiles):
    """Per-rasterized-tile ``(list_length, rendered_pixels, serial_len)``
    from the per-tile list lengths ``n_g`` and rendered-pixel counts
    ``n_px``.

    ``serial_len`` is the serial iteration depth of the tile's thread
    block: each pixel's thread walks the sorted list until early
    termination, and the block runs as long as its slowest pixel.  A
    pixel walks up to and including its first α-passing pair that would
    push Γ below ``t_min`` (the first non-contributing compacted pair),
    else the whole list.  Tiles with an empty list or no rendered pixel
    are not rasterized and get no record.
    """
    slot_offsets = np.cumsum(n_g) - n_g
    serial = n_g[px_tiles]
    for b in blocks:
        dead = b.cache.valid & ~b.cache.contrib
        rows = np.flatnonzero(dead.any(axis=1))
        starts = np.cumsum(b.cache.lengths) - b.cache.lengths
        slot = b.slots[starts[rows] + dead[rows].argmax(axis=1)]
        pixel = b.lo + rows
        serial[pixel] = slot - slot_offsets[px_tiles[pixel]] + 1
    longest = np.zeros(n_g.size, dtype=int)
    np.maximum.at(longest, px_tiles, serial)
    return [(int(n_g[t]), int(n_px[t]), int(longest[t]))
            for t in np.flatnonzero((n_px > 0) & (n_g > 0))]
