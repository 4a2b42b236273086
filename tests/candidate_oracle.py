"""Numpy oracle of the sparse candidate generator and α-cull.

``repro.render.kernels.candidates.candidate_pairs`` runs one compiled scan
(``candidate_cull`` in ``_native.c``).  This is the chunked numpy mask it
replaced: the corner predicate
``u_min <= cu <= u_max and v_min <= cv <= v_max`` over the bbox columns
taken in stable depth-rank order, as a ``(K, chunk)`` boolean mask per
rank range of at most ``chunk_pairs // K`` Gaussians, so the row-major
positions of each chunk are pixel-major and front-to-back.  Chunks are
merged by a stable sort on the pixel key.  With means and cutoffs, a
candidate is kept when ``d2 = du*du + dv*dv <= cutoff`` (NaN keeps
nothing), ``du = cu - mean_u`` as ``evaluate_alpha`` forms it.
"""

from __future__ import annotations

import numpy as np

#: Bound on the per-chunk boolean mask size (pixels x chunk Gaussians).
DEFAULT_CHUNK_PAIRS = 1 << 20


def candidate_pairs(centres, bbox, depth, mean2d=None, cutoff=None,
                    chunk_pairs=DEFAULT_CHUNK_PAIRS):
    """``(pix, gss, lengths, num_candidates, d2)``: the kept pairs in
    composite order, the per-pixel kept counts, the bbox-candidate count
    and, with a cutoff, the kept pairs' squared distances (else None)."""
    centres = np.asarray(centres, float).reshape(-1, 2)
    bbox = np.asarray(bbox, float).reshape(-1, 4)
    K, M = centres.shape[0], bbox.shape[0]
    culls = cutoff is not None
    if K == 0 or M == 0:
        none = np.zeros(0, dtype=np.int64)
        return (none, none, np.zeros(K, dtype=np.int64), 0,
                np.zeros(0) if culls else None)
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
    # Each chunk is pixel-major over its own rank range, and the ranges
    # ascend: a stable sort on the pixel key merges them in rank order.
    pix = np.concatenate(pix_parts)
    order = np.argsort(pix, kind="stable")
    pix, gss = pix[order], np.concatenate(gss_parts)[order]
    num_candidates = int(pix.size)
    d2 = None
    if culls:
        mean2d = np.asarray(mean2d, float)
        du = centres[pix, 0] - mean2d[gss, 0]
        dv = centres[pix, 1] - mean2d[gss, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = du * du + dv * dv
            keep = d2 <= np.asarray(cutoff, float)[gss]
        pix, gss, d2 = pix[keep], gss[keep], d2[keep]
    return (pix, gss, np.bincount(pix, minlength=K), num_candidates, d2)
