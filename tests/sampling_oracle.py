"""Per-tile loop oracles of the pixel samplers.

``repro.core.sampling`` draws the ``"random"`` tracking pixels with one
array-bound ``Generator.integers`` call and finds the ``"harris"`` and the
mapping sampler's per-tile maxima with one padded ``argmax``.  These are
the per-tile loops they replaced: two scalar draws per tile (``u`` then
``v``), and one ``np.argmax`` per clipped block, over tile origins laid
out by ``np.meshgrid``.
"""

from __future__ import annotations

import numpy as np


def tile_origins(width, height, tile):
    """``(T, 2)`` top-left corner of every tile, row-major."""
    uu, vv = np.meshgrid(np.arange(0, width, tile), np.arange(0, height, tile))
    return np.stack([uu.ravel(), vv.ravel()], axis=-1)


def one_per_tile(width, height, tile, offsets_fn):
    """One pixel per tile; ``offsets_fn((u0, v0), tw, th)`` returns
    ``(du, dv)`` inside the tile's ``tw x th`` extent."""
    origins = tile_origins(width, height, tile)
    picks = np.empty_like(origins)
    for i, (u0, v0) in enumerate(origins):
        tw = min(tile, width - u0)
        th = min(tile, height - v0)
        du, dv = offsets_fn((u0, v0), tw, th)
        picks[i] = (u0 + du, v0 + dv)
    return picks


def random_pixels(width, height, tile, rng):
    """``"random"``: two scalar ``rng.integers`` draws per tile."""
    return one_per_tile(
        width, height, tile,
        lambda origin, tw, th: (rng.integers(tw), rng.integers(th)))


def center_pixels(width, height, tile):
    """``"center"`` and ``"lowres"``: each tile's centre."""
    return one_per_tile(width, height, tile,
                        lambda origin, tw, th: (tw // 2, th // 2))


def block_argmax(values, tile):
    """The first maximum of each ``tile x tile`` block of ``values``, by
    ``np.argmax`` over the block alone."""
    height, width = values.shape

    def best_in_tile(origin, tw, th):
        u0, v0 = origin
        flat = int(np.argmax(values[v0:v0 + th, u0:u0 + tw]))
        return flat % tw, flat // tw

    return one_per_tile(width, height, tile, best_in_tile)
