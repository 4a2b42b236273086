"""Tile-based forward rendering (the conventional 3DGS pipeline of Fig. 3).

``render_full`` runs projection -> tile intersection -> per-tile depth sort
-> rasterization, producing color / depth / silhouette maps and the
workload counters the hardware models consume.

Rasterization runs on the render engine the sparse pixel pipeline uses
(:mod:`repro.render.kernels.vectorized`), fed from the tile table:

- *candidates and α*: every rendered pixel of a tile x every Gaussian
  in that tile's list, as the tile pipeline α-checks them (so
  ``num_candidate_pairs = Σ n_px·n_g``).  One compiled call
  (``tile_cull`` in ``_native.c``) walks them all, a pixel row at a
  time: the row keeps the list entries whose ``dv²`` is within their
  Gaussian's conservative α cutoff, and each of its pixels tests only
  those, forming ``d² = du² + dv²`` with numpy's bits and dropping the
  pair when ``d²`` lies beyond the cutoff; a survivor leaves with its
  falloff exponent.  numpy's ``exp`` runs on the survivors in place, and
  one more compiled call (``alpha_finish``) forms ``α``, its clip flag and
  the ``α ≥ alpha_threshold`` filter — the same passing pairs, α bits and
  clip flags as evaluating every candidate, at any ``alpha_threshold``;
- *order*: the pairs come out tile-major, pixels row-major within a tile
  and front-to-back within a pixel — each tile's depth sort is reused for
  every pixel in it, with no per-pair sort (the redundant-sort
  elimination of GS-TG);
- *composite*: the shared :func:`~repro.render.kernels.vectorized.composite`
  stage, one compiled call per frame over every rendered pixel.

A pair that fails α has a transmittance factor of exactly 1.0 and a
weight of exactly 0.0 in a per-tile :func:`composite_forward`, and both
reductions are sequential, so dropping it changes no bit: the outputs are
identical to a per-tile composite loop's.  The frame's composite state is
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

import ctypes
import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..obs import trace
# composite_forward is the per-tile oracle of the engine below; it stays
# importable from this module (perfbench/layers.py wraps it here).
from .compositing import (  # noqa: F401
    ALPHA_MAX,
    ALPHA_THRESHOLD,
    T_MIN,
    composite_forward,
)
from .kernels import native
from .kernels.native import f64, i64, pointers, ptr
from .kernels.vectorized import (
    FlatCompositeCache,
    alpha_cutoff,
    composite,
)
from .projection import ProjectedGaussians, project_gaussians
from .sorting import sort_intersection_table
from .stats import PipelineStats
from .tiles import TileGrid, build_intersection_table

__all__ = ["RenderResult", "render_full"]

DEFAULT_BACKGROUND = np.zeros(3)


@dataclass
class RenderResult:
    """Output of a tile-based forward pass (full frame or Org.+S subset)."""

    color: np.ndarray        # (H, W, 3)
    depth: np.ndarray        # (H, W)
    silhouette: np.ndarray   # (H, W)
    proj: ProjectedGaussians
    grid: TileGrid
    # The tile-Gaussian sorted list: every tile's projected-Gaussian list,
    # front-to-back, tile-major in one flat array; ``tile_counts`` holds
    # the list length of every tile.
    sorted_gss: np.ndarray
    tile_counts: np.ndarray
    pixels: np.ndarray       # (K, 2) rendered pixels, tile-major
    pixel_tiles: np.ndarray  # (K,) tile of each rendered pixel
    # Backward state; both None when rendered with ``keep_cache=False``.
    # ``cache`` is the frame's composite state (also None when no pixel
    # has a pair); ``slots`` holds, per pair, the index of its (tile,
    # list-slot) accumulator — its position in ``sorted_gss``.
    cache: Optional[FlatCompositeCache]
    slots: Optional[np.ndarray]
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
        renders the full frame.  A pixel outside the image raises
        ``ValueError``.
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
        sorted_gss = sort_intersection_table(table, proj)

    if pixels is not None:
        pixels = np.asarray(pixels, dtype=int).reshape(-1, 2)
        intr.check_pixels(pixels)
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
        slots, gss, alpha, clipped, lengths = _tile_pairs(
            proj, sorted_gss, n_g, n_px, px, alpha_threshold)
        u, v = px[:, 0], px[:, 1]
        color[v, u], depth[v, u], silhouette[v, u], cache = composite(
            proj, gss, lengths, px + 0.5, bg, alpha, clipped,
            alpha_threshold, t_min)
        contribs = (np.zeros(px.shape[0], dtype=np.int64) if cache is None
                    else cache.touched)

        # Sorting is charged only for tiles that render at least one pixel
        # (a generous accounting for the Org.+S baseline); every rendered
        # pixel α-checks its tile's whole list.
        stats.num_sort_keys += int(n_g[n_px > 0].sum())
        stats.num_candidate_pairs += int((n_px * n_g).sum())
        stats.num_alpha_checks += int((n_px * n_g).sum())
        stats.num_contrib_pairs += int(contribs.sum())
        if record_per_pixel:
            stats.tile_work.extend(
                _tile_work_records(cache, slots, n_g, n_px, px_tiles))
            stats.per_pixel_contribs.extend(contribs.tolist())

    return RenderResult(
        color=color,
        depth=depth,
        silhouette=silhouette,
        proj=proj,
        grid=grid,
        sorted_gss=sorted_gss,
        tile_counts=n_g,
        pixels=px,
        pixel_tiles=px_tiles,
        cache=cache if keep_cache else None,
        slots=slots if keep_cache else None,
        stats=stats,
    )


def _rendered_pixels(grid: TileGrid, pixels: Optional[np.ndarray]):
    """The pixels to rasterize, tile-major and row-major within a tile,
    with their tiles.  A ``pixels`` subset is deduplicated; the full
    frame's (``pixels=None``) are built once per grid, read-only."""
    if pixels is None:
        return _full_frame_pixels(grid)
    mask = np.zeros((grid.height, grid.width), dtype=bool)
    mask[pixels[:, 1], pixels[:, 0]] = True
    v, u = np.nonzero(mask)
    return _tile_major(grid, u, v)


@functools.lru_cache(maxsize=8)
def _full_frame_pixels(grid: TileGrid):
    v, u = np.divmod(np.arange(grid.width * grid.height), grid.width)
    px, tiles = _tile_major(grid, u, v)
    px.flags.writeable = tiles.flags.writeable = False
    return px, tiles


def _tile_major(grid, u, v):
    tiles = grid.tile_of_pixel(u, v)
    order = np.argsort(tiles, kind="stable")
    return np.stack([u[order], v[order]], axis=-1), tiles[order]


def _tile_cull(proj, sorted_gss, n_g, n_px, px, cutoff):
    """The compiled dense cull (``tile_cull`` in ``_native.c``): every
    rendered pixel of a tile against the tile's whole list in the flat
    tile-major ``sorted_gss`` (``n_g`` entries per tile), a pair
    kept when its ``d² = du² + dv²`` (centre = pixel + 0.5, the bits
    :func:`evaluate_alpha` computes) is within ``cutoff``; each pixel row
    of a tile tests only the list entries whose ``dv²`` is.  Returns
    ``(slots, x, lengths)``: per kept pair, its position in ``sorted_gss``
    and its falloff exponent ``(−d²)·(1/(2σ²))`` (:func:`falloff_alpha`'s
    operands and order), tile-major, then pixel, then list position, and
    per rendered pixel its kept count.  The kernel tests each candidate
    once into a scratch, and a second call copies the kept pairs into
    arrays of their exact size."""
    lists = i64(sorted_gss)
    n_g, n_px, px = i64(n_g), i64(n_px), i64(px)
    m, K = len(proj), px.shape[0]
    mean2d, sigma2d, cutoff = (f64(proj.mean2d), f64(proj.sigma2d),
                               f64(cutoff))
    if (n_px.shape != n_g.shape or px.shape != (K, 2)
            or mean2d.shape != (m, 2) or sigma2d.shape != (m,)
            or cutoff.shape != (m,)):
        raise ValueError("tile cull: tile counts, pixels, means, σ or "
                         "cutoffs have the wrong shape")
    lengths = np.empty(K, dtype=np.int64)
    sizes = (n_g.size, lists.size, K, m)
    inputs = tuple(map(ptr, (n_g, n_px, lists, px, mean2d, sigma2d, cutoff,
                             lengths)))
    lib, scratch = native.library(), ctypes.c_void_p()
    count = lib.tile_cull(*sizes, *inputs, ctypes.byref(scratch))
    if count == -2:
        raise MemoryError("tile cull: no memory for the pair scratch")
    if count < 0:
        raise ValueError("tile cull: the tile counts do not sum to the list "
                         "and pixel counts, or a list indexes no projected "
                         "Gaussian")
    out = None
    try:
        out = (np.empty(count, dtype=np.int64), np.empty(count))
    finally:
        # Frees the scratch, and copies the pairs out when ``out`` exists.
        placed = lib.tile_place(scratch, count, *map(ptr, out or (None,) * 2))
    if placed != count:
        raise ValueError("tile cull: the scratch holds fewer pairs than "
                         "counted")
    return (*out, lengths)


def _tile_pairs(proj, sorted_gss, n_g, n_px, px, alpha_threshold):
    """Candidate + α stage of the dense pipeline: two compiled calls with
    numpy's ``exp`` between them.

    Every rendered pixel of a tile is a candidate against the tile's whole
    sorted list.  :func:`_tile_cull` drops the pairs whose ``d²`` exceeds
    :func:`alpha_cutoff`, which no passing pair's does, and forms the
    survivors' falloff exponents; ``np.exp`` runs on them in place, and
    :func:`_finish_alpha` forms ``α``, its clip flag and the ``α ≥
    alpha_threshold`` filter, so the result is the pair list, α bits and
    clip flags of evaluating every candidate.  Pairs come out in emission
    order: tile-major, then pixel, then list position.  Full frames and
    Org.+S pixel subsets take the same path.  Returns flat ``(slot,
    gaussian, alpha, clipped)`` arrays and the per-pixel pair counts.
    """
    slots, x, lengths = _tile_cull(proj, sorted_gss, n_g, n_px, px,
                                   alpha_cutoff(proj, alpha_threshold))
    return (*_finish_alpha(proj, sorted_gss, slots, np.exp(x, out=x),
                           lengths, alpha_threshold), lengths)


def _finish_alpha(proj, sorted_gss, slots, g, lengths, alpha_threshold):
    """``alpha_finish`` in ``_native.c``: :func:`falloff_alpha`'s ``α =
    o·g``, clip flag and clamp on each pair's falloff value ``g``, then
    the ``α ≥ alpha_threshold`` filter, with the bits of ``falloff_alpha``
    and of the fancy-index compaction it replaces.  ``slots``, ``g`` and
    ``lengths`` (:func:`_tile_cull`'s) are compacted in place to the kept
    pairs.  Returns the kept pairs' ``(slot, gaussian, alpha, clipped)``.
    """
    lists, m, P = i64(sorted_gss), len(proj), slots.size
    if proj.opacity.shape != (m,):
        raise ValueError("α finish: projected opacities have the wrong "
                         "shape")
    gss, clipped = np.empty(P, dtype=np.int64), np.empty(P, dtype=bool)
    count = native.library().alpha_finish(
        lengths.size, P, lists.size, m, ptr(lengths), ptr(slots),
        ptr(lists), ptr(gss), ptr(g), ptr(clipped),
        *pointers(proj, ("opacity",)), ALPHA_MAX, alpha_threshold)
    if count < 0:
        raise ValueError("α finish: the per-pixel counts do not sum to the "
                         "pair count, or a slot indexes no list entry")
    return slots[:count], gss[:count], g[:count], clipped[:count]


def _tile_work_records(cache, slots, n_g, n_px, px_tiles):
    """Per-rasterized-tile ``(list_length, rendered_pixels, serial_len)``
    from the per-tile list lengths ``n_g`` and rendered-pixel counts
    ``n_px``, and the frame's composite ``cache`` (None when no pixel has
    a pair) with the pairs' list ``slots``.

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
    if cache is not None:
        dead = np.flatnonzero(~cache.contrib)       # flat, pixel-major
        rows = np.searchsorted(np.cumsum(cache.lengths), dead, side="right")
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        pixel = rows[first]
        serial[pixel] = slots[dead[first]] - slot_offsets[px_tiles[pixel]] + 1
    longest = np.zeros(n_g.size, dtype=int)
    np.maximum.at(longest, px_tiles, serial)
    return [(int(n_g[t]), int(n_px[t]), int(longest[t]))
            for t in np.flatnonzero((n_px > 0) & (n_g > 0))]
