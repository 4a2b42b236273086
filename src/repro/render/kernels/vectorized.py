"""Vectorized sparse kernels: batched segmented forward/backward passes.

Executes all K pixel pipelines at once over the flattened (pixel,
Gaussian) pair list:

- one global ``np.lexsort`` on ``(pixel, depth, index)`` replaces the K
  per-pixel depth sorts (the tie-break matches ``sort_by_depth``);
- the ragged per-pixel segments are padded to ``(K, Lmax)`` and the
  transmittance prefix Γ comes from a single row-wise ``cumprod``, with
  early-termination/`t_min`/α-threshold handling as boolean masks;
- channel sums run as row-wise ``cumsum`` prefixes — the same strictly
  sequential reduction order :func:`composite_forward` uses, which is what
  makes zero-padding *exact*: appending zeros to a sequential sum (or ones
  to a product) never changes the earlier prefix values;
- the backward pass computes every pair gradient in one shot from the
  padded cache and aggregates per Gaussian with a single ``np.add.at``
  whose (index, value) sequence — pixel-major, depth-sorted — is exactly
  the sequence the reference loop's per-pixel scatters produce.

Together this makes the backend bit-identical to the reference loop while
doing O(K) Python work instead of O(K) Python *loop iterations* of ~25
numpy calls each.

The stages — :func:`evaluate_alpha`, :func:`composite` and
:func:`pair_gradients` — are also the engine of the dense tile pipeline
(:mod:`repro.render.rasterize` / :mod:`repro.render.backward`), which
feeds them from the tile table instead of a lexsort and aggregates with a
tile-major two-stage scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..compositing import ALPHA_MAX

__all__ = [
    "FlatCompositeCache",
    "PairGradients",
    "evaluate_alpha",
    "composite",
    "forward",
    "backward",
    "pair_gradients",
]


@dataclass
class FlatCompositeCache:
    """Backward-pass state of the batched forward pass (padded layout).

    Shapes: K pixels, Lmax = longest per-pixel candidate list, M = total
    surviving pairs.  Rows are the sampled pixels; columns are depth-sorted
    list positions; ``valid`` masks the padding.
    """

    centres: np.ndarray       # (K, 2) continuous pixel centres
    lengths: np.ndarray       # (K,) per-pixel list lengths
    gss: np.ndarray           # (M,) flat sorted projected-Gaussian indices
    gpad: np.ndarray          # (K, Lmax) padded Gaussian indices (0-filled)
    valid: np.ndarray         # (K, Lmax) bool — real entry vs padding
    alpha: np.ndarray         # (K, Lmax) α, zeroed where not contributing
    gamma: np.ndarray         # (K, Lmax) exclusive transmittance prefix
    contrib: np.ndarray       # (K, Lmax) bool
    clipped: np.ndarray       # (K, Lmax) bool — α hit ALPHA_MAX
    gamma_final: np.ndarray   # (K,)
    background: np.ndarray    # (3,)


def evaluate_alpha(proj, gss, centres, exp_fn=np.exp):
    """α stage: ``(alpha, clipped)`` per (centre, Gaussian) pair.

    ``centres[..., :2]`` broadcasts against ``gss``: aligned flat arrays
    give one value per pair, ``(P, 1, 2)`` centres against a length-L list
    give the ``(P, L)`` block.  Elementwise the same expression
    :func:`composite_forward` evaluates, so every pipeline α-checks a
    pair to the same bits.
    """
    du = centres[..., 0] - proj.mean2d[gss, 0]
    dv = centres[..., 1] - proj.mean2d[gss, 1]
    d2 = du * du + dv * dv
    sig = proj.sigma2d[gss]
    inv_2var = 1.0 / (2.0 * sig * sig)
    alpha_raw = proj.opacity[gss] * exp_fn(-d2 * inv_2var)
    return np.minimum(alpha_raw, ALPHA_MAX), alpha_raw > ALPHA_MAX


def composite(proj, gss, lengths, centres, background, alpha, clipped,
              alpha_threshold, t_min):
    """Composite stage over depth-ordered pairs grouped by pixel.

    ``gss`` / ``alpha`` / ``clipped`` are flat per-pair arrays, pixel-major
    and front-to-back within a pixel; ``lengths`` are the K per-pixel pair
    counts.  The ragged segments are padded to ``(K, Lmax)``: Γ is one
    row-wise ``cumprod`` and every channel a row-wise ``cumsum`` — the
    strictly sequential reductions of :func:`composite_forward`, which is
    what makes the padding (and any pair that fails α, whose factor is an
    exact 1.0 and whose weight an exact 0.0) bit-transparent.

    Returns ``(color, depth, silhouette, cache)``; ``color`` has the
    background composited under, and ``cache`` (the backward state) is
    None when no pixel has a pair.
    """
    K = lengths.size
    Lmax = int(lengths.max()) if K else 0
    if Lmax == 0:
        return np.tile(background, (K, 1)), np.zeros(K), np.zeros(K), None
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    valid = np.arange(Lmax)[None, :] < lengths[:, None]
    at = np.minimum(offsets[:-1, None] + np.arange(Lmax)[None, :],
                    gss.size - 1)
    gpad = np.where(valid, gss[at], 0)
    alpha = np.where(valid, alpha[at], 0.0)
    clipped = valid & clipped[at]
    passes = (alpha >= alpha_threshold) & valid

    # Transmittance prefix: padding contributes a factor of 1.0, so every
    # real prefix is untouched; cumprod is sequential like the reference's.
    gamma_incl = np.cumprod(1.0 - np.where(passes, alpha, 0.0), axis=1)
    gamma = np.concatenate([np.ones((K, 1)), gamma_incl[:, :-1]], axis=1)
    contrib = passes & (gamma_incl >= t_min)
    weight = np.where(contrib, gamma * alpha, 0.0)

    # Channel sums as sequential prefix sums (zero padding is exact), one
    # (K, Lmax) cumsum per channel.
    colpad = proj.color[gpad]
    out_color = np.stack([np.cumsum(weight * colpad[:, :, c], axis=1)[:, -1]
                          for c in range(3)], axis=-1)
    out_depth = np.cumsum(weight * proj.depth[gpad], axis=1)[:, -1]
    out_sil = np.cumsum(weight, axis=1)[:, -1]
    gamma_final = 1.0 - out_sil
    out_color = out_color + gamma_final[:, None] * background[None, :]

    cache = FlatCompositeCache(
        centres=centres,
        lengths=lengths,
        gss=gss,
        gpad=gpad,
        valid=valid,
        alpha=np.where(contrib, alpha, 0.0),
        gamma=gamma,
        contrib=contrib,
        clipped=clipped,
        gamma_final=gamma_final,
        background=background,
    )
    return out_color, out_depth, out_sil, cache


def forward(proj, pairs, centres, background, alpha_threshold, t_min,
            keep_cache, exp_fn, stats, color, depth, silhouette,
            pair_alpha=None, pair_clipped=None, contribs_out=None):
    """Batched forward pass over the shared candidate pair list.

    The order stage (one global lexsort) followed by :func:`composite`.
    ``pair_alpha`` / ``pair_clipped`` are the flat per-pair α values and
    clip flags the pipeline's α stage already evaluated (aligned with
    ``pairs``); when given, the falloff is not re-evaluated here.
    ``contribs_out`` (when given, a zeroed length-K int array) receives
    the per-pixel contributing-pair counts for the sparsity atlas; the
    counts are the same ``contrib`` reduction the stats use, so the
    channel stays bit-identical to the reference backend's.
    """
    K = pairs.num_pixels
    M = pairs.size
    record = stats.record_per_pixel
    if M == 0:
        if record:
            stats.pixel_list_lengths.extend([0] * K)
            stats.per_pixel_contribs.extend([0] * K)
        return ([np.zeros(0, dtype=int) for _ in range(K)], [None] * K,
                None)

    # Segmented depth sort: pixel-major, then front-to-back, then by
    # projected index — the exact (depth, index) key of sort_by_depth.
    order = np.lexsort((pairs.gss, proj.depth[pairs.gss], pairs.pix))
    pix = pairs.pix[order]
    gss = pairs.gss[order]
    lengths = np.bincount(pix, minlength=K)
    if pair_alpha is not None:
        alpha, clipped = pair_alpha[order], pair_clipped[order]
    else:
        alpha, clipped = evaluate_alpha(proj, gss, centres[pix], exp_fn)
    out_color, out_depth, out_sil, cache = composite(
        proj, gss, lengths, centres, background, alpha, clipped,
        alpha_threshold, t_min)
    color[:, :] = out_color
    depth[:] = out_depth
    silhouette[:] = out_sil

    contribs_row = cache.contrib.sum(axis=1)
    stats.num_contrib_pairs += int(contribs_row.sum())
    if contribs_out is not None:
        contribs_out[:] = contribs_row
    if record:
        stats.pixel_list_lengths.extend(int(n) for n in lengths)
        stats.per_pixel_contribs.extend(int(c) for c in contribs_row)

    pixel_lists: List[np.ndarray] = np.split(
        gss, np.cumsum(lengths)[:-1])
    return pixel_lists, [None] * K, cache if keep_cache else None


@dataclass
class PairGradients:
    """Flat per-pair gradient partials in canonical order.

    The pair sequence is the composite cache's valid (non-padding)
    entries in row-major order — pixel-major, front-to-back — which is
    the exact (index, value) sequence the per-pixel reference loop
    scatters, so one sequential ``np.add.at`` per array reproduces its
    accumulation bit for bit (the software analogue of the
    accelerator's aggregation scoreboard).
    """

    idx: np.ndarray           # (P,) projected-Gaussian index per pair
    d_mean2d: np.ndarray      # (P, 2)
    d_sigma2d: np.ndarray     # (P,)
    d_opacity: np.ndarray     # (P,)
    d_color: np.ndarray       # (P, 3)
    d_depth: np.ndarray       # (P,)
    touched: np.ndarray       # (K,) per-pixel contributing-pair counts
    contrib_flat: np.ndarray  # (P,) bool — pair actually contributed


def _exclusive_suffix(w: np.ndarray) -> np.ndarray:
    """Row-wise suffix sums excluding self (flip, cumsum, flip).  Padding
    sits at the row tails, so after the flip it only prepends zeros to
    each cumsum — every real suffix value is unchanged."""
    return np.flip(np.cumsum(np.flip(w, axis=1), axis=1), axis=1) - w


def pair_gradients(fc, proj, d_color, d_depth, d_silhouette):
    """Compute every per-pair gradient partial; no aggregation.

    Every arithmetic expression mirrors :func:`composite_backward` term
    for term (same operand values, same association order).  Only the
    suffix sums need the padded rows; everything else runs on the flat
    valid pairs, with each pair's pixel-level operands gathered by its
    row.  All math is per pixel row, so the dense engine can run it one
    pixel block at a time and get the same bits as one global pass.
    """
    sel = fc.valid
    gss = fc.gss
    rows = np.repeat(np.arange(fc.lengths.size), fc.lengths)
    weight_pad = fc.gamma * fc.alpha
    colpad = proj.color[fc.gpad]
    alpha = fc.alpha[sel]
    gamma = fc.gamma[sel]
    contrib = fc.contrib[sel]
    weight = weight_pad[sel]
    color = proj.color[gss]
    depth = proj.depth[gss]
    d_color = d_color[rows]

    one_minus = np.where(contrib, 1.0 - alpha, 1.0)
    inv_one_minus = 1.0 / np.maximum(one_minus, 1e-12)

    # dOut/dα = Γ V - S / (1 - α) per channel, S the exclusive suffix sum
    # (the background folded into the color suffixes), contracted with
    # the output gradients in channel order.
    background_term = fc.gamma_final[rows]
    d_alpha = None
    for c in range(3):
        suffix_c = (_exclusive_suffix(weight_pad * colpad[:, :, c])[sel]
                    + background_term * fc.background[c])
        term = d_color[:, c] * (gamma * color[:, c] - suffix_c * inv_one_minus)
        d_alpha = term if d_alpha is None else d_alpha + term
    suffix_d = _exclusive_suffix(weight_pad * proj.depth[fc.gpad])[sel]
    suffix_s = _exclusive_suffix(weight_pad)[sel]
    d_alpha = d_alpha + d_depth[rows] * (gamma * depth - suffix_d * inv_one_minus)
    d_alpha = d_alpha + d_silhouette[rows] * (gamma - suffix_s * inv_one_minus)
    d_alpha = np.where(contrib & ~fc.clipped[sel], d_alpha, 0.0)

    opac = proj.opacity[gss]
    sig = proj.sigma2d[gss]
    g = np.where(contrib, alpha / np.maximum(opac, 1e-12), 0.0)
    d_g = d_alpha * opac
    d_opacity = d_alpha * g

    du = fc.centres[rows, 0] - proj.mean2d[gss, 0]
    dv = fc.centres[rows, 1] - proj.mean2d[gss, 1]
    inv_var = 1.0 / (sig * sig)
    d_mean_u = d_g * g * du * inv_var
    d_mean_v = d_g * g * dv * inv_var
    d2 = du * du + dv * dv
    d_sigma = d_g * g * d2 * (inv_var / sig)

    # Pairs in row-major (= pixel-major, depth-sorted) order — the
    # identical (index, value) sequence the reference's per-pixel
    # np.add.at calls issue, zero-valued non-contributing pairs included.
    return PairGradients(
        idx=gss,
        d_mean2d=np.stack([d_mean_u, d_mean_v], axis=-1),
        d_sigma2d=d_sigma,
        d_opacity=d_opacity,
        d_color=weight[:, None] * d_color,
        d_depth=weight * d_depth[rows],
        touched=fc.contrib.sum(axis=1),
        contrib_flat=contrib,
    )


def backward(result, proj, d_color, d_depth, d_silhouette, pg, stats,
             contribs_out=None):
    """Batched backward pass over the padded forward cache.

    Pair partials from :func:`pair_gradients`, aggregated by one
    pixel-major ``np.add.at`` per gradient array — all per-Gaussian
    accumulations are bit-identical to the reference loop's.
    ``contribs_out`` (when given) receives the per-pixel touched-pair
    counts for the sparsity atlas.
    """
    fc = result.flat_cache
    if fc is None:
        return
    grads = pair_gradients(fc, proj, d_color, d_depth, d_silhouette)
    np.add.at(pg.d_mean2d, grads.idx, grads.d_mean2d)
    np.add.at(pg.d_sigma2d, grads.idx, grads.d_sigma2d)
    np.add.at(pg.d_opacity, grads.idx, grads.d_opacity)
    np.add.at(pg.d_color, grads.idx, grads.d_color)
    np.add.at(pg.d_depth, grads.idx, grads.d_depth)

    touched = grads.touched
    total_touched = int(touched.sum())
    if contribs_out is not None:
        contribs_out[:] = touched
    stats.num_candidate_pairs += int(fc.lengths.sum())
    stats.num_contrib_pairs += total_touched
    stats.num_atomic_adds += total_touched
    if stats.record_per_pixel:
        nonzero = fc.lengths > 0
        stats.pixel_list_lengths.extend(int(n) for n in fc.lengths[nonzero])
        stats.per_pixel_contribs.extend(int(c) for c in touched[nonzero])
        ids = proj.source_index[fc.gss[grads.contrib_flat]]
        splits = np.cumsum(touched[nonzero])[:-1]
        stats.pixel_contrib_ids.extend(np.split(ids, splits))


from . import KernelBackend, register_kernel  # noqa: E402

register_kernel(KernelBackend(
    name="vectorized",
    description="batched segmented numpy kernels (CSR pair list)",
    forward=forward,
    backward=backward,
    # The global (pixel, depth, index) lexsort fully determines the pair
    # order on its own, so pre-sorted input buys nothing.
    needs_pixel_major_pairs=False,
    wants_pair_alpha=True,
))
