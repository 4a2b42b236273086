"""Candidate generation shared by every sparse renderer.

:func:`candidate_pairs` builds the flattened CSR-style (pixel, Gaussian)
pair list in *composite order*: pixel-major, and front-to-back within each
pixel with ties broken by ascending projected index — the exact
``(depth, index)`` key of ``sort_by_depth``.  No pair is ever sorted.  The
compiled scan (``candidate_cull`` in ``_native.c``) ranks the projected
Gaussians by depth once per view, in ``np.argsort(kind="stable")``'s
order (NaN last, ties by index), and walks them in that rank: each
Gaussian visits only the pixels whose
centre row lies in its bbox (a binary search in a v-ordered pixel index),
tests the inclusive corner predicate
``u_min <= u + 0.5 <= u_max and v_min <= v + 0.5 <= v_max``
(bboxes are ``mean2d ± radius``) and appends the pairs it keeps to a
scratch, so every pixel's pairs arrive front-to-back.  A second call
(``candidate_place``) lays them out pixel-major into outputs of their
exact size (an upper-bound allocation of ``K × m`` pairs would dominate
the memory of a densified map's renders).  This is the per-tile sort
reuse of the dense pipeline (GS-TG's redundant-sort elimination) taken
one level up: one per-view rank serves every pixel's short list (Sec.
IV-B).

Given a per-Gaussian cutoff on the squared centre distance
(:func:`~repro.render.kernels.vectorized.alpha_cutoff`), the same scan is
the pixel pipeline's preemptive α-cull: it forms each candidate's
``d² = du*du + dv*dv`` with numpy's bits and keeps the pair only when
``d² <= cutoff``, so the falloff's ``exp`` runs on the survivors alone.
A ``+inf`` cutoff keeps every bbox candidate.
``tests/candidate_oracle.py`` holds the numpy mask the scan replaced.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import native
from .native import f64, ptr

__all__ = ["CandidatePairs", "candidate_pairs"]


@dataclass
class CandidatePairs:
    """Flattened (pixel, Gaussian) candidate pairs in composite order.

    ``pix`` is non-decreasing; within each pixel's segment ``gss`` runs
    front-to-back (ascending depth, then ascending projected index).
    ``lengths`` holds the K per-pixel pair counts — a pixel with no pair
    owns an empty segment.  ``d2`` is each pair's squared centre distance
    when the generator culled by a cutoff, and ``num_candidates`` the
    number of bbox candidates the pairs were selected from.
    """

    pix: np.ndarray      # (M,) int — index into the sampled-pixel list
    gss: np.ndarray      # (M,) int — index into the projected Gaussians
    lengths: np.ndarray  # (K,) int — pairs per pixel
    num_candidates: int
    d2: Optional[np.ndarray] = None  # (M,) float

    @property
    def num_pixels(self) -> int:
        return int(self.lengths.size)

    @property
    def size(self) -> int:
        return int(self.pix.size)

    @classmethod
    def empty(cls, num_pixels: int, with_d2: bool = False) -> "CandidatePairs":
        none = np.zeros(0, dtype=np.int64)
        return cls(none, none, np.zeros(num_pixels, dtype=np.int64), 0,
                   np.zeros(0) if with_d2 else None)

    def select(self, keep: np.ndarray) -> "CandidatePairs":
        """The pairs that ``keep`` (a boolean mask, or ascending
        positions) selects, in order."""
        pix = self.pix[keep]
        return CandidatePairs(
            pix, self.gss[keep], np.bincount(pix, minlength=self.num_pixels),
            self.num_candidates, None if self.d2 is None else self.d2[keep])


def candidate_pairs(
    centres: np.ndarray,
    mean2d: np.ndarray,
    radius: np.ndarray,
    depth: np.ndarray,
    cutoff: Optional[np.ndarray] = None,
) -> CandidatePairs:
    """Every (pixel, Gaussian) pair whose pixel centre lies in the bbox,
    in composite order.

    ``centres`` is ``(K, 2)`` continuous pixel centres; the bboxes are
    ``mean2d ± radius`` (``(M, 2)`` means, ``(M,)`` half-extents), formed
    with numpy's bits, and ``depth`` the ``(M,)`` camera-frame depths that
    order each pixel's list.  With a ``cutoff`` (``(M,)``) a candidate is
    kept only when its squared distance to its mean is ``<= cutoff`` (NaN
    keeps nothing), and the result carries the kept pairs' ``d2``.
    """
    K, m = centres.shape[0], depth.shape[0]
    culls = cutoff is not None
    if K == 0 or m == 0:
        return CandidatePairs.empty(K, with_d2=culls)
    centres, mean2d, radius, depth = (f64(centres), f64(mean2d), f64(radius),
                                      f64(depth))
    if culls:
        cutoff = f64(cutoff)
    if (centres.shape != (K, 2) or mean2d.shape != (m, 2)
            or radius.shape != (m,) or depth.shape != (m,)
            or (culls and cutoff.shape != (m,))):
        raise ValueError("candidate pairs: centres, means, radii, depths or "
                         "cutoffs have the wrong shape")
    # Locals hold every argument array alive through both calls.
    lengths, n_cand, scratch = (np.empty(K, dtype=np.int64), ctypes.c_int64(),
                                ctypes.c_void_p())
    lengths_p, lib = ptr(lengths), native.library()
    count = lib.candidate_cull(
        K, m, ptr(centres), ptr(depth), ptr(mean2d), ptr(radius),
        cutoff if cutoff is None else ptr(cutoff), lengths_p,
        ctypes.byref(n_cand), ctypes.byref(scratch))
    if count == -2:
        raise MemoryError("candidate pairs: no memory for the pair scratch")
    if count < 0:
        raise ValueError("candidate pairs: the kernel rejected its arguments")
    out = None
    try:
        out = (np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64),
               np.empty(count) if culls else None)
    finally:
        # Frees the scratch, and lays the pairs out when ``out`` exists.
        placed = lib.candidate_place(scratch, K, lengths_p, count,
                                     *map(ptr, out or (None,) * 3))
    if placed != count:
        raise ValueError("candidate pairs: the scratch does not match the "
                         "per-pixel counts")
    return CandidatePairs(out[0], out[1], lengths, n_cand.value, out[2])
