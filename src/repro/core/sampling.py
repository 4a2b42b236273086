"""Adaptive sparse pixel sampling (Sec. IV-A, the paper's first contribution).

Tracking samples exactly one pixel per ``w_t x w_t`` tile; the paper shows
uniform random selection within each tile matches or beats feature-based
selection (Fig. 10), so :func:`sample_tracking_pixels` defaults to
``strategy="random"`` but also implements the comparison strategies:

- ``"random"`` — one uniformly random pixel per tile (the paper's choice),
  drawn by one ``Generator.integers`` call over the tiles' extents: per
  tile ``u`` then ``v``, tiles in tile-row-major order;
- ``"harris"`` — the highest Harris-response pixel per tile;
- ``"center"`` — the tile centre (deterministic control);
- ``"lowres"``  — the Low-Res. baseline: equivalent pixel positions of a
  downsampled image (tile centres on a regular lattice);
- ``"loss_tile"`` — the GauSPU baseline: whole tiles chosen by loss,
  matching the total pixel budget but without global coverage.

Mapping combines two pixel sets (Fig. 12): every *unseen* pixel, i.e.
``Gamma_final > 0.5`` (Eqn. 2), plus one texture-weighted random pixel per
``w_m x w_m`` tile with probability ``P(p) = w_R(p) * r`` (Eqn. 3).

No strategy loops over tiles; ``tests/sampling_oracle.py`` keeps the
per-tile loops as the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import harris_response, sobel_magnitude

__all__ = [
    "TRACKING_TILE",
    "MAPPING_TILE",
    "UNSEEN_TRANSMITTANCE",
    "MappingSamples",
    "sample_tracking_pixels",
    "sample_mapping_pixels",
    "unseen_mask",
    "tile_origins",
    "tile_argmax",
]

# Default tile sizes from Sec. VII-A: w_t = 16, w_m = 4.
TRACKING_TILE = 16
MAPPING_TILE = 4
# Eqn. 2: a pixel is unseen when its final transmittance exceeds 0.5.
UNSEEN_TRANSMITTANCE = 0.5


def tile_origins(width: int, height: int, tile: int) -> np.ndarray:
    """``(T, 2)`` top-left ``(u0, v0)`` corner of every tile, row-major."""
    us = np.arange(0, width, tile)
    vs = np.arange(0, height, tile)
    origins = np.empty((vs.size, us.size, 2), dtype=us.dtype)
    origins[..., 0] = us
    origins[..., 1] = vs[:, None]
    return origins.reshape(-1, 2)


def tile_argmax(values: np.ndarray, tile: int) -> np.ndarray:
    """``(T, 2)`` ``(u, v)`` of the largest value in each ``tile x tile``
    block of the ``(H, W)`` map ``values``, tile-row-major.

    The map is padded to whole tiles with ``-inf`` and every block is
    searched by one ``argmax``; the padding sits after each block's real
    values in row-major order, so ties (and NaN) resolve exactly as
    ``np.argmax`` over the block alone: to the first in row-major order.
    """
    height, width = values.shape
    tiles_y, tiles_x = -(-height // tile), -(-width // tile)
    padded = np.full((tiles_y * tile, tiles_x * tile), -np.inf)
    padded[:height, :width] = values
    flat = padded.reshape(tiles_y, tile, tiles_x, tile).swapaxes(1, 2).reshape(
        tiles_y * tiles_x, tile * tile).argmax(axis=1)
    return tile_origins(width, height, tile) + np.stack(
        [flat % tile, flat // tile], axis=-1)


def sample_tracking_pixels(
    width: int,
    height: int,
    tile: int = TRACKING_TILE,
    strategy: str = "random",
    rng: np.random.Generator | None = None,
    image: np.ndarray | None = None,
    loss_map: np.ndarray | None = None,
) -> np.ndarray:
    """Select tracking pixels: one per ``tile x tile`` region.

    Returns ``(K, 2)`` integer ``(u, v)`` coordinates in tile-row-major
    order — the pixel of tile ``(tx, ty)`` is at index ``ty * tiles_x + tx``
    — which is the lattice layout the accelerator's direct-indexing
    projection unit assumes (Sec. V-C).  ``image`` is required for
    ``"harris"``; ``loss_map`` for ``"loss_tile"``.

    ``"random"`` draws each element of its one array-bound
    ``Generator.integers`` call as the scalar ``rng.integers(extent)``
    would, so the pixels and the generator's state after are those of
    the per-tile scalar loop (``tests/sampling_oracle.py``).
    """
    if tile <= 0:
        raise ValueError("tile must be positive")
    rng = rng or np.random.default_rng()

    # Tile-row-major order throughout: the accelerator's direct-indexing
    # projection unit (Sec. V-C) depends on this lattice layout.
    if strategy == "harris":
        if image is None:
            raise ValueError("harris strategy needs the reference image")
        return tile_argmax(harris_response(image)[:height, :width], tile)
    if strategy == "loss_tile":
        if loss_map is None:
            raise ValueError("loss_tile strategy needs a loss map")
        return _loss_tile_pixels(width, height, tile, loss_map)
    origins = tile_origins(width, height, tile)
    # Each tile's width and height, cut short at the image's edges.
    extents = np.minimum(tile, (width, height) - origins)
    if strategy == "random":
        return origins + rng.integers(extents)
    if strategy in ("center", "lowres"):
        # "lowres": downsampling by `tile` is equivalent to sampling the
        # regular lattice of tile centres (no intra-tile randomness, no
        # adaptivity).
        return origins + extents // 2
    raise ValueError(f"unknown tracking sampling strategy: {strategy!r}")


def _loss_tile_pixels(width: int, height: int, tile: int,
                      loss_map: np.ndarray) -> np.ndarray:
    """GauSPU-style tile selection: dense tiles ranked by summed loss.

    Matches the one-pixel-per-tile budget: with T tiles of ``tile**2``
    pixels each, selecting ``ceil(T / tile**2)`` whole tiles renders the
    same number of pixels as our sampler but with no global coverage.
    """
    loss_map = np.asarray(loss_map, dtype=float)
    origins = tile_origins(width, height, tile)
    scores = np.array([
        loss_map[v0:v0 + tile, u0:u0 + tile].sum() for u0, v0 in origins
    ])
    budget_pixels = len(origins)
    picked: list = []
    for t in np.argsort(-scores):
        if len(picked) >= budget_pixels:
            break
        u0, v0 = origins[t]
        tw = min(tile, width - u0)
        th = min(tile, height - v0)
        uu, vv = np.meshgrid(np.arange(u0, u0 + tw), np.arange(v0, v0 + th))
        picked.extend(zip(uu.ravel(), vv.ravel()))
    picks = np.asarray(picked[:budget_pixels], dtype=int)
    return picks


def unseen_mask(gamma_final: np.ndarray,
                threshold: float = UNSEEN_TRANSMITTANCE) -> np.ndarray:
    """Eqn. 2: boolean map of pixels whose transmittance exceeds ``threshold``."""
    return np.asarray(gamma_final, dtype=float) > threshold


@dataclass
class MappingSamples:
    """The two pixel sets the mapping sampler produces (Fig. 12).

    They are kept separate because the accelerator stores unseen-pixel
    indices apart from the per-tile lattice so they do not break the
    projection unit's direct-indexing scheme (Sec. V-C).
    """

    unseen: np.ndarray    # (A, 2) every pixel with Gamma_final > 0.5
    weighted: np.ndarray  # (B, 2) one texture-weighted pixel per tile

    @property
    def all_pixels(self) -> np.ndarray:
        """Union of the two sets, duplicates removed, row-major order."""
        combined = np.concatenate([self.unseen, self.weighted], axis=0)
        if combined.size == 0:
            return combined.reshape(0, 2)
        unique = np.unique(combined, axis=0)
        order = np.lexsort((unique[:, 0], unique[:, 1]))
        return unique[order]

    def counts(self) -> dict:
        """Per-strategy pixel counts (the flight recorder's view).

        ``total`` is the size of the deduplicated union — what actually
        gets rendered — so ``unseen + weighted - total`` is the overlap
        between the two strategies.
        """
        return {
            "unseen": int(len(self.unseen)),
            "weighted": int(len(self.weighted)),
            "total": int(len(self.all_pixels)),
        }


def sample_mapping_pixels(
    gamma_final: np.ndarray,
    image: np.ndarray,
    tile: int = MAPPING_TILE,
    rng: np.random.Generator | None = None,
    include_unseen: bool = True,
    include_weighted: bool = True,
    uniform_weights: bool = False,
    weight: np.ndarray | None = None,
) -> MappingSamples:
    """Select mapping pixels per Fig. 12.

    Parameters
    ----------
    gamma_final:
        ``(H, W)`` final transmittance of the *first* forward pass of this
        mapping invocation (the paper computes it once per mapping).
    image:
        ``(H, W, 3)`` reference frame, used for the Sobel texture weight.
    include_unseen / include_weighted:
        Ablation switches for Fig. 24 ("Unseen", "Weighted", "Comb").
    uniform_weights:
        Replace the texture weight with a constant (plain random per tile),
        another Fig. 24 ablation arm.
    weight:
        Precomputed ``(H, W)`` texture-weight map (the Sobel magnitude of
        ``image``).  Keyframe colors never change, so callers can memoize
        the map (:meth:`repro.slam.keyframes.Keyframe.texture_weight`)
        and skip the per-invocation filter; ``uniform_weights`` takes
        precedence.  The sampled sets are identical either way.
    """
    rng = rng or np.random.default_rng()
    gamma_final = np.asarray(gamma_final, dtype=float)
    height, width = gamma_final.shape

    if include_unseen:
        vs, us = np.nonzero(unseen_mask(gamma_final))
        unseen = np.stack([us, vs], axis=-1)
    else:
        unseen = np.zeros((0, 2), dtype=int)

    if include_weighted:
        if uniform_weights:
            weight = np.ones((height, width))
        elif weight is None:
            weight = sobel_magnitude(image)
        # P(p) = w_R(p) * r with r ~ U(0, 1): the argmax per tile is a
        # weighted random draw (larger w_R wins more often).
        score = weight * rng.random((height, width))
        weighted = tile_argmax(score, tile)
    else:
        weighted = np.zeros((0, 2), dtype=int)

    return MappingSamples(unseen=unseen, weighted=weighted)
