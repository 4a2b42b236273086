"""Candidate generation shared by every sparse renderer.

:func:`candidate_pairs` builds the flattened CSR-style (pixel, Gaussian)
pair list in *composite order*: pixel-major, and front-to-back within each
pixel with ties broken by ascending projected index — the exact
``(depth, index)`` key of ``sort_by_depth``.  No pair is ever sorted.  The
projected Gaussians are ranked by depth once per view (one stable
argsort); the corner predicate
``u_min <= u + 0.5 <= u_max and v_min <= v + 0.5 <= v_max``
(bboxes are ``mean2d ± radius``) then runs over the rank-ordered bbox
columns, so the row-major positions of the ``(K, M)`` mask are already
pixel-major and front-to-back.  This is the per-tile sort reuse of the
dense pipeline (GS-TG's redundant-sort elimination) taken one level up:
one per-view rank serves every pixel's short list (Sec. IV-B).

The mask is built over rank ranges of at most ``chunk_pairs // K``
Gaussians, so its size stays bounded as the map densifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CandidatePairs", "candidate_pairs"]

#: Bound on the per-chunk boolean mask size (pixels x chunk Gaussians).
DEFAULT_CHUNK_PAIRS = 1 << 20


@dataclass
class CandidatePairs:
    """Flattened (pixel, Gaussian) candidate pairs in composite order.

    ``pix`` is non-decreasing; within each pixel's segment ``gss`` runs
    front-to-back (ascending depth, then ascending projected index).
    ``num_pixels`` is K, the number of sampled pixels — pixels with no
    candidates simply own an empty segment.
    """

    pix: np.ndarray   # (M,) int — index into the sampled-pixel list
    gss: np.ndarray   # (M,) int — index into the projected Gaussians
    num_pixels: int

    @property
    def size(self) -> int:
        return int(self.pix.size)

    def lengths(self) -> np.ndarray:
        """Per-pixel candidate counts, length ``num_pixels``."""
        return np.bincount(self.pix, minlength=self.num_pixels)

    @classmethod
    def empty(cls, num_pixels: int) -> "CandidatePairs":
        return cls(np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                   num_pixels)


def candidate_pairs(
    centres: np.ndarray,
    bbox: np.ndarray,
    depth: np.ndarray,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> CandidatePairs:
    """Every (pixel, Gaussian) pair whose pixel centre lies in the bbox,
    in composite order.

    ``centres`` is ``(K, 2)`` continuous pixel centres; ``bbox`` is the
    ``(M, 4)`` ``(u_min, v_min, u_max, v_max)`` corner array and ``depth``
    the ``(M,)`` camera-frame depths that order each pixel's list.
    """
    K = centres.shape[0]
    M = bbox.shape[0]
    if K == 0 or M == 0:
        return CandidatePairs.empty(K)
    by_depth = np.argsort(depth, kind="stable")
    lo_u, lo_v, hi_u, hi_v = np.ascontiguousarray(bbox[by_depth].T)
    cu, cv = centres[:, 0:1], centres[:, 1:2]
    chunk = max(1, chunk_pairs // K)
    pix_parts, gss_parts = [], []
    for start in range(0, M, chunk):
        cols = slice(start, min(start + chunk, M))
        mask = ((cu >= lo_u[cols]) & (cu <= hi_u[cols])
                & (cv >= lo_v[cols]) & (cv <= hi_v[cols]))
        pix, at = np.divmod(np.flatnonzero(mask), mask.shape[1])
        pix_parts.append(pix)
        gss_parts.append(by_depth[cols][at])
    if len(pix_parts) == 1:
        return CandidatePairs(pix_parts[0], gss_parts[0], K)
    # Each chunk is pixel-major over its own rank range, and the ranges
    # ascend: a stable sort on the pixel key merges them in rank order.
    pix = np.concatenate(pix_parts)
    order = np.argsort(pix, kind="stable")
    return CandidatePairs(pix[order], np.concatenate(gss_parts)[order], K)
