"""Direct-index candidate oracle: the projection unit's lattice arithmetic
(Sec. V-C).

With one sampled pixel per ``tile x tile`` region stored row-major (the
layout of ``sample_tracking_pixels``), the sampled-pixel list index of any
pixel is a pure function of its tile coordinates, so each Gaussian's bbox
corners bound a *contiguous 2D index range* in the lattice — no scan of
the pixel list.  The production generator
(:func:`repro.render.kernels.candidates.candidate_pairs`) scans instead;
the tests hold its pair set equal to this arithmetic's, and to the plain
all-pairs corner test of :func:`corner_pairs`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def is_tile_lattice(pixels: np.ndarray, tile: int, width: int) -> bool:
    """True when ``pixels`` is the row-major one-per-tile lattice: the
    pixel at list index ``k`` lies in tile ``(k % tiles_x, k // tiles_x)``.
    """
    if tile <= 0 or pixels.shape[0] == 0:
        return False
    tiles_x = -(-width // tile)
    k = np.arange(pixels.shape[0])
    return bool(np.all(pixels[:, 0] // tile == k % tiles_x)
                and np.all(pixels[:, 1] // tile == k // tiles_x))


def corner_pairs(centres: np.ndarray,
                 bbox: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(k, g)`` pair with centre ``k`` inside bbox ``g`` (corners
    inclusive), from one unchunked ``(K, M)`` mask: pixel-major, then
    ascending ``g``."""
    mask = ((centres[:, 0:1] >= bbox[None, :, 0])
            & (centres[:, 0:1] <= bbox[None, :, 2])
            & (centres[:, 1:2] >= bbox[None, :, 1])
            & (centres[:, 1:2] <= bbox[None, :, 3]))
    return np.nonzero(mask)


def lattice_pair_arrays(
    pixels: np.ndarray, bbox: np.ndarray, tile: int, width: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Direct-indexing candidate pairs ``(k, g)``, *Gaussian-major*.

    For each Gaussian the bbox corners give an inclusive tile range
    ``[tx0, tx1] x [ty0, ty1]``; the covered lattice indices are
    ``ty * tiles_x + tx``, refined by the shared corner predicate.  Pairs
    are ordered by Gaussian, then row-major over the tile range.
    """
    pixels = np.asarray(pixels, dtype=int)
    K = pixels.shape[0]
    M = bbox.shape[0]
    if K == 0 or M == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    tiles_x = int(-(-width // tile))

    tx0 = np.maximum(np.floor_divide(bbox[:, 0], tile).astype(int), 0)
    ty0 = np.maximum(np.floor_divide(bbox[:, 1], tile).astype(int), 0)
    tx1 = np.minimum(np.floor_divide(bbox[:, 2], tile).astype(int),
                     tiles_x - 1)
    # The lattice has ceil(K / tiles_x) rows; clamp the row range there so
    # the expansion stays bounded (out-of-list slots are masked).
    ty1 = np.minimum(np.floor_divide(bbox[:, 3], tile).astype(int),
                     (K - 1) // tiles_x)

    nx = np.maximum(tx1 - tx0 + 1, 0)
    ny = np.maximum(ty1 - ty0 + 1, 0)
    counts = nx * ny
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)

    g = np.repeat(np.arange(M), counts)
    local = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    nx_rep = np.repeat(nx, counts)
    k = ((np.repeat(ty0, counts) + local // nx_rep) * tiles_x
         + np.repeat(tx0, counts) + local % nx_rep)

    keep = k < K
    k, g = k[keep], g[keep]
    centre_u = pixels[k, 0] + 0.5
    centre_v = pixels[k, 1] + 0.5
    keep = ((bbox[g, 0] <= centre_u) & (centre_u <= bbox[g, 2])
            & (bbox[g, 1] <= centre_v) & (centre_v <= bbox[g, 3]))
    return k[keep], g[keep]


def bbox_candidate_ranges(pixels: np.ndarray, bbox: np.ndarray,
                          tile: int, width: int) -> List[np.ndarray]:
    """Per Gaussian, the indices into the lattice ``pixels`` whose centres
    fall inside its bounding box (from :func:`lattice_pair_arrays`)."""
    k, g = lattice_pair_arrays(np.asarray(pixels, dtype=int),
                               np.asarray(bbox, dtype=float), tile, width)
    counts = np.bincount(g, minlength=bbox.shape[0])
    return np.split(k, np.cumsum(counts)[:-1])
