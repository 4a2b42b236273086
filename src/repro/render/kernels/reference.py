"""Reference sparse kernels: the original per-pixel Python loop.

This is the oracle the vectorized backend is validated against.  One
:func:`composite_forward` / :func:`composite_backward` call per sampled
pixel, exactly as the pipeline was first written — every other backend
must reproduce its outputs, gradients, and ``PipelineStats`` bit-for-bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..compositing import CompositeCache, composite_backward, composite_forward
from ..sorting import sort_by_depth

__all__ = ["forward", "backward"]


def forward(proj, pairs, centres, background, alpha_threshold, t_min,
            keep_cache, exp_fn, stats, color, depth, silhouette,
            pair_alpha=None, pair_clipped=None, contribs_out=None):
    """Per-pixel forward loop over the shared candidate pair list.

    Fills ``color`` / ``depth`` / ``silhouette`` (length K) in place and
    returns ``(gss, lengths, caches, flat_cache)``: the concatenated
    per-pixel sorted lists and their lengths, the per-pixel caches, and
    ``flat_cache``, always ``None`` here; this backend caches per pixel.
    The pre-computed ``pair_alpha`` / ``pair_clipped`` arrays are
    deliberately ignored: the oracle re-derives α inside
    :func:`composite_forward`.
    ``contribs_out`` (when given, a zeroed length-K int array) receives
    every pixel's contributing-pair count regardless of
    ``record_per_pixel`` — the sparsity atlas's spatial channel.
    """
    K = pairs.num_pixels
    record = stats.record_per_pixel
    lengths = pairs.lengths()
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    pixel_lists: List[np.ndarray] = []
    caches: List[Optional[CompositeCache]] = []
    for k in range(K):
        cand = pairs.gss[offsets[k]:offsets[k + 1]]
        cand = sort_by_depth(cand, proj.depth)
        pixel_lists.append(cand)
        if record:
            stats.pixel_list_lengths.append(int(cand.size))
        if cand.size == 0:
            caches.append(None)
            if record:
                stats.per_pixel_contribs.append(0)
            continue
        out_color, out_depth, out_sil, cache = composite_forward(
            centres[k:k + 1],
            proj.mean2d[cand],
            proj.sigma2d[cand],
            proj.depth[cand],
            proj.opacity[cand],
            proj.color[cand],
            background,
            alpha_threshold=alpha_threshold,
            t_min=t_min,
            exp_fn=exp_fn,
        )
        color[k] = out_color[0]
        depth[k] = out_depth[0]
        silhouette[k] = out_sil[0]
        contribs = int(cache.contrib.sum())
        stats.num_contrib_pairs += contribs
        if record:
            stats.per_pixel_contribs.append(contribs)
        if contribs_out is not None:
            contribs_out[k] = contribs
        caches.append(cache if keep_cache else None)
    gss = (np.concatenate(pixel_lists) if pixel_lists
           else np.zeros(0, dtype=int))
    return gss, lengths, caches, None


def backward(result, proj, d_color, d_depth, d_silhouette, pg, stats,
             contribs_out=None, pose_only=False):
    """Per-pixel backward loop over the cached forward composites.

    ``contribs_out`` (when given) receives the per-pixel touched-pair
    counts — the atlas's backward aggregation channel.  ``pose_only`` is
    accepted and ignored: the oracle always computes every gradient.
    """
    record = stats.record_per_pixel
    pixel_lists = result.pixel_lists
    for k in range(result.pixels.shape[0]):
        cand = pixel_lists[k]
        cache = result.caches[k]
        if cache is None or cand.size == 0:
            continue
        pair = composite_backward(
            cache,
            proj.mean2d[cand],
            proj.sigma2d[cand],
            proj.depth[cand],
            proj.opacity[cand],
            proj.color[cand],
            d_color[k:k + 1],
            d_depth[k:k + 1],
            d_silhouette[k:k + 1],
        )
        pg.accumulate(cand, pair)
        stats.num_candidate_pairs += cand.size
        stats.num_contrib_pairs += pair.num_pairs_touched
        stats.num_atomic_adds += pair.num_pairs_touched
        if contribs_out is not None:
            contribs_out[k] = pair.num_pairs_touched
        if record:
            stats.pixel_list_lengths.append(int(cand.size))
            stats.per_pixel_contribs.append(pair.num_pairs_touched)
            stats.pixel_contrib_ids.append(
                proj.source_index[cand[cache.contrib[0]]])


from . import KernelBackend, register_kernel  # noqa: E402

register_kernel(KernelBackend(
    name="reference",
    description="per-pixel Python loop (oracle)",
    forward=forward,
    backward=backward,
))
