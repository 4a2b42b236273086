"""Vectorized sparse kernels: batched segmented forward/backward passes.

Executes all K pixel pipelines at once over the flattened (pixel,
Gaussian) pair list:

- no sort at all: :func:`~repro.render.kernels.candidates.candidate_pairs`
  ranks the projected Gaussians by depth once per view and emits the
  pairs already pixel-major and front-to-back (the ``(depth, index)`` key
  of ``sort_by_depth``), and the preemptive α filter keeps that order;
- the ragged per-pixel segments are padded slot-major to ``(Lmax, K)``:
  row ``s`` holds list position ``s`` of every pixel, so all K pixels
  step through each list position together (one lane per pixel, as the
  render and reverse-render units of Sec. V do);
- every scan runs down that slot axis through :func:`slot_scan`: the
  transmittance prefix Γ is one product scan, each channel total a
  running sum, with early-termination/`t_min`/α-threshold handling as
  boolean masks.  The scans are the strictly sequential reductions
  :func:`composite_forward` uses, which is what makes zero-padding
  *exact*: appending zeros to a sequential sum (or ones to a product)
  never changes the earlier prefix values;
- the backward pass computes every pair gradient in one shot from the
  padded cache and aggregates per Gaussian with one
  :func:`~repro.render.backward.scatter_add` (a per-column
  ``np.bincount``) whose (index, value) sequence — pixel-major,
  depth-sorted — is exactly the sequence the reference loop's per-pixel
  ``np.add.at`` scatters produce, added in the same order from zero.
  The flat pair sequence stays pixel-major: the pair at list position
  ``s`` of pixel row ``r`` sits at flat position ``s*K + r`` of the
  padded arrays.

Together this makes the backend bit-identical to the reference loop while
doing at most O(Lmax) Python-level numpy calls per block instead of O(K)
Python *loop iterations* of ~25 numpy calls each.

The stages — :func:`evaluate_alpha` (whose falloff half,
:func:`falloff_alpha`, the dense pipeline calls on the squared distances
its axis-shared cull already computed), :func:`composite` and the reverse
pass, split at its representation seam into :func:`alpha_gradients`
(everything up to dL/dα) and :func:`pair_gradients` (the isotropic
falloff reverse on top of it) — are also the engine of the dense tile
pipeline (:mod:`repro.render.rasterize` / :mod:`repro.render.backward`),
which feeds them from its depth-sorted tile table and aggregates with a
tile-major two-stage scatter.  Anisotropic splats
(:mod:`repro.render.anisotropic`) run :func:`forward` on their own conic
α and :func:`alpha_gradients` under their own falloff reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compositing import ALPHA_MAX

__all__ = [
    "FlatCompositeCache",
    "WALK_MIN_PIXELS",
    "PairGradients",
    "AlphaGradients",
    "evaluate_alpha",
    "falloff_alpha",
    "slot_scan",
    "composite",
    "forward",
    "backward",
    "alpha_gradients",
    "pair_gradients",
]


@dataclass
class FlatCompositeCache:
    """Backward-pass state of the batched forward pass (padded layout).

    Shapes: K pixels, Lmax = longest per-pixel candidate list, M = total
    surviving pairs.  The padded arrays are slot-major: rows are
    depth-sorted list positions, columns the sampled pixels; ``valid``
    masks the padding.
    """

    centres: np.ndarray       # (K, 2) continuous pixel centres
    lengths: np.ndarray       # (K,) per-pixel list lengths
    gss: np.ndarray           # (M,) flat sorted projected-Gaussian indices
    gpad: np.ndarray          # (Lmax, K) padded Gaussian indices (M-filled)
    valid: np.ndarray         # (Lmax, K) bool — real entry vs padding
    alpha: np.ndarray         # (Lmax, K) α, zeroed where not contributing
    gamma: np.ndarray         # (Lmax, K) exclusive transmittance prefix
    contrib: np.ndarray       # (Lmax, K) bool
    clipped: np.ndarray       # (Lmax, K) bool — α hit ALPHA_MAX
    gamma_final: np.ndarray   # (K,)
    background: np.ndarray    # (3,)


def _columns(a: np.ndarray) -> np.ndarray:
    """The columns of an ``(M, k)`` array as contiguous ``(M,)`` rows, for
    per-channel gathers."""
    return np.ascontiguousarray(a.T)


def _padded_columns(proj) -> np.ndarray:
    """The colour and depth channels as ``(4, M + 1)`` contiguous rows,
    each followed by a 0.0 that the padding index ``M`` gathers."""
    m = len(proj)
    cols = np.zeros((4, m + 1))
    cols[:3, :m] = proj.color.T
    cols[3, :m] = proj.depth
    return cols


#: Pixel count K from which :func:`slot_scan` walks the slot axis (one
#: K-lane ufunc call per list position) instead of calling the ufunc's
#: ``accumulate`` on axis 0, which numpy does not vectorize across the K
#: lanes.  Measured on a 2-vCPU x86 host with numpy 2.4, one
#: ``(L = 64, K)`` scan takes 11 / 38 / 55 / 93 / 265 µs by accumulate and
#: 44 / 45 / 49 / 47 / 72 µs by the walk at K = 48 / 192 / 256 / 384 /
#: 1024 (EXPERIMENTS.md, "Slot-major composite and reverse pass").  Both
#: branches perform the same IEEE operations in the same order, so no
#: result depends on it.
WALK_MIN_PIXELS = 256


def slot_scan(ufunc, x, reverse=False, total=False):
    """Sequential inclusive scan of ``ufunc`` down the slot axis of an
    ``(L, K)`` array, ``L >= 1``: ``out[0] = x[0]`` and
    ``out[s] = ufunc(out[s - 1], x[s])`` — the operand order of
    ``ufunc.accumulate``.  ``reverse=True`` scans from the last slot up
    (the flip/accumulate/flip suffix scan); ``total=True`` returns only
    the final ``(K,)`` row, kept as a running value rather than a prefix
    array.

    Blocks of at least :data:`WALK_MIN_PIXELS` pixels walk the slots with
    elementwise ``ufunc(..., out=)`` calls; smaller ones call
    ``ufunc.accumulate``.  (A total is never ``ufunc.reduce``, which sums
    pairwise when the reduced axis is the innermost one.)
    """
    if reverse:
        x = x[::-1]
    if x.shape[1] < WALK_MIN_PIXELS:
        out = ufunc.accumulate(x, axis=0)
        if total:
            return out[-1]
    elif total:
        out = x[0].copy()
        for row in x[1:]:
            ufunc(out, row, out=out)
        return out
    else:
        out = np.empty(x.shape, dtype=x.dtype)
        out[0] = x[0]
        for s in range(1, len(x)):
            ufunc(out[s - 1], x[s], out=out[s])
    return out[::-1] if reverse else out


def evaluate_alpha(proj, gss, centres, exp_fn=np.exp):
    """α stage: ``(alpha, clipped)`` per (centre, Gaussian) pair.

    ``centres[..., :2]`` broadcasts against ``gss``: aligned flat arrays
    give one value per pair, ``(P, 1, 2)`` centres against a length-L list
    give the ``(P, L)`` block.  Elementwise the same expression
    :func:`composite_forward` evaluates, so every pipeline α-checks a
    pair to the same bits.
    """
    du = centres[..., 0] - proj.mean2d[:, 0][gss]
    dv = centres[..., 1] - proj.mean2d[:, 1][gss]
    return falloff_alpha(proj, gss, du * du + dv * dv, exp_fn)


def falloff_alpha(proj, gss, d2, exp_fn=np.exp):
    """The second half of :func:`evaluate_alpha`: ``(alpha, clipped)``
    from each pair's squared centre distance ``d2 = du*du + dv*dv``, for
    callers that computed it themselves (the dense pipeline shares ``du²``
    and ``dv²`` across a tile's columns and rows)."""
    sig = proj.sigma2d
    inv_2var = (1.0 / (2.0 * sig * sig))[gss]
    alpha_raw = proj.opacity[gss] * exp_fn(-d2 * inv_2var)
    return np.minimum(alpha_raw, ALPHA_MAX), alpha_raw > ALPHA_MAX


def composite(proj, gss, lengths, centres, background, alpha, clipped,
              alpha_threshold, t_min):
    """Composite stage over depth-ordered pairs grouped by pixel.

    ``gss`` / ``alpha`` / ``clipped`` are flat per-pair arrays, pixel-major
    and front-to-back within a pixel; ``lengths`` are the K per-pixel pair
    counts.  The ragged segments are padded slot-major to ``(Lmax, K)``:
    Γ is one product scan and every channel a running sum down the slot
    axis (:func:`slot_scan`) — the strictly sequential reductions of
    :func:`composite_forward`, which is what makes the padding (and any
    pair that fails α, whose factor is an exact 1.0 and whose weight an
    exact 0.0) bit-transparent.

    Returns ``(color, depth, silhouette, cache)``; ``color`` has the
    background composited under, and ``cache`` (the backward state) is
    None when no pixel has a pair.
    """
    K = lengths.size
    Lmax = int(lengths.max()) if K else 0
    if Lmax == 0:
        return np.tile(background, (K, 1)), np.zeros(K), np.zeros(K), None
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    slot = np.arange(Lmax)[:, None]
    valid = slot < lengths
    at = np.minimum(offsets[:-1] + slot, gss.size - 1)
    # Padding points one past the last projected Gaussian, at the 0.0
    # that _padded_columns appends, so a zero weight never meets a real
    # splat's (possibly non-finite) value.
    gpad = np.where(valid, gss[at], len(proj))
    alpha = np.where(valid, alpha[at], 0.0)
    clipped = valid & clipped[at]
    passes = (alpha >= alpha_threshold) & valid

    # Transmittance prefix: padding contributes a factor of 1.0, so every
    # real prefix is untouched; the scan is sequential like the reference's.
    gamma_incl = slot_scan(np.multiply, 1.0 - np.where(passes, alpha, 0.0))
    gamma = np.concatenate([np.ones((1, K)), gamma_incl[:-1]])
    contrib = passes & (gamma_incl >= t_min)
    weight = np.where(contrib, gamma * alpha, 0.0)

    # Channel totals as sequential running sums (zero padding is exact),
    # one (Lmax, K) array per channel, each gathered from a contiguous
    # (M + 1,) column: the same values as slicing an (Lmax, K, 3) gather,
    # without its strided copies.
    *color_cols, depth_col = _padded_columns(proj)
    out_color = np.stack([slot_scan(np.add, weight * col[gpad], total=True)
                          for col in color_cols], axis=-1)
    out_depth = slot_scan(np.add, weight * depth_col[gpad], total=True)
    out_sil = slot_scan(np.add, weight, total=True)
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

    ``pairs`` must be in composite order — pixel-major, front-to-back —
    as :func:`~repro.render.kernels.candidates.candidate_pairs` emits
    them; this is :func:`composite` over them as they come.
    Returns ``(gss, lengths, caches, flat_cache)``: the flat depth-sorted
    pair list grouped by pixel, the K per-pixel list lengths, the
    per-pixel cache list (all None here) and the padded batch cache.
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
        return np.zeros(0, dtype=int), np.zeros(K, dtype=int), [None] * K, None

    pix, gss = pairs.pix, pairs.gss
    lengths = np.bincount(pix, minlength=K)
    if pair_alpha is not None:
        alpha, clipped = pair_alpha, pair_clipped
    else:
        alpha, clipped = evaluate_alpha(proj, gss, centres[pix], exp_fn)
    out_color, out_depth, out_sil, cache = composite(
        proj, gss, lengths, centres, background, alpha, clipped,
        alpha_threshold, t_min)
    color[:, :] = out_color
    depth[:] = out_depth
    silhouette[:] = out_sil

    contribs_row = cache.contrib.sum(axis=0)
    stats.num_contrib_pairs += int(contribs_row.sum())
    if contribs_out is not None:
        contribs_out[:] = contribs_row
    if record:
        stats.pixel_list_lengths.extend(int(n) for n in lengths)
        stats.per_pixel_contribs.extend(int(c) for c in contribs_row)

    return gss, lengths, [None] * K, cache if keep_cache else None


@dataclass
class AlphaGradients:
    """Flat per-pair reverse pass up to dL/dα, in canonical order.

    Nothing here depends on which falloff produced α.  The pair sequence
    is the composite cache's valid (non-padding) entries pixel-major,
    front-to-back — which is the exact (index,
    value) sequence the per-pixel reference loop scatters, so one
    in-order :func:`~repro.render.backward.scatter_add` per array
    reproduces its accumulation bit for bit (the software analogue of
    the accelerator's aggregation scoreboard).  The vector partials are
    kept as contiguous per-component columns, which ``scatter_add`` bins
    directly.
    """

    rows: np.ndarray          # (P,) pixel row of each pair
    idx: np.ndarray           # (P,) projected-Gaussian index per pair
    d_alpha: np.ndarray       # (P,) dL/dα, zero unless contributing unclipped
    opacity: np.ndarray       # (P,) the pair's Gaussian opacity
    g: np.ndarray             # (P,) falloff α/o, zero unless contributing
    d_color: tuple            # (d_r, d_g, d_b), each (P,); None if pose-only
    d_depth: np.ndarray       # (P,)
    touched: np.ndarray       # (K,) per-pixel contributing-pair counts
    contrib_flat: np.ndarray  # (P,) bool — pair actually contributed


@dataclass
class PairGradients(AlphaGradients):
    """:class:`AlphaGradients` plus the isotropic falloff's partials."""

    d_mean2d: tuple           # (d_u, d_v), each (P,)
    d_sigma2d: np.ndarray     # (P,)
    d_opacity: np.ndarray     # (P,); None if pose-only


def _exclusive_suffix(w: np.ndarray) -> np.ndarray:
    """Suffix sums down the slot axis, excluding self (a reverse scan,
    minus ``w``).  Padding sits past each pixel's last slot, so the
    reverse scan only adds zeros before reaching a real entry — every
    real suffix value is unchanged."""
    return slot_scan(np.add, w, reverse=True) - w


def alpha_gradients(fc, proj, d_color, d_depth, d_silhouette,
                    pose_only=False):
    """The reverse pass up to dL/dα; no falloff, no aggregation.

    Every arithmetic expression mirrors :func:`composite_backward` term
    for term (same operand values, same association order).  Only the
    suffix sums need the padded slot-major arrays; everything else runs
    on the flat valid pairs — taken once, pixel-major, by their flat
    positions ``slot*K + row`` in the padded layout — with each pair's
    pixel-level operands gathered by its row.  All math is per pixel, so
    the dense engine can run it one pixel block at a time and get the same
    bits as one global pass.
    ``pose_only=True`` skips the colour partials, which reach no
    geometric gradient (``d_color`` is then None).
    """
    K = fc.lengths.size
    gss = fc.gss
    rows = np.repeat(np.arange(K), fc.lengths)
    starts = np.cumsum(fc.lengths) - fc.lengths
    flat = (np.arange(gss.size) - starts[rows]) * K + rows
    weight_pad = fc.gamma * fc.alpha
    alpha = fc.alpha.take(flat)
    gamma = fc.gamma.take(flat)
    contrib = fc.contrib.take(flat)
    weight = weight_pad.take(flat)
    depth = proj.depth[gss]
    # Pixel and Gaussian operands are gathered per channel from
    # contiguous columns: the same values as (P, 3) row gathers.
    d_color_cols = [col[rows] for col in _columns(d_color)]
    d_depth_rows = d_depth[rows]

    one_minus = np.where(contrib, 1.0 - alpha, 1.0)
    inv_one_minus = 1.0 / np.maximum(one_minus, 1e-12)

    # dOut/dα = Γ V - S / (1 - α) per channel, S the exclusive suffix sum
    # (the background folded into the color suffixes), contracted with
    # the output gradients in channel order.
    background_term = fc.gamma_final[rows]
    *color_cols, depth_col = _padded_columns(proj)
    d_alpha = None
    for c, color in enumerate(color_cols):
        suffix_c = (_exclusive_suffix(weight_pad * color[fc.gpad]).take(flat)
                    + background_term * fc.background[c])
        term = d_color_cols[c] * (gamma * color[gss]
                                  - suffix_c * inv_one_minus)
        d_alpha = term if d_alpha is None else d_alpha + term
    suffix_d = _exclusive_suffix(weight_pad * depth_col[fc.gpad]).take(flat)
    suffix_s = _exclusive_suffix(weight_pad).take(flat)
    d_alpha = d_alpha + d_depth_rows * (gamma * depth - suffix_d * inv_one_minus)
    d_alpha = d_alpha + d_silhouette[rows] * (gamma - suffix_s * inv_one_minus)
    d_alpha = np.where(contrib & ~fc.clipped.take(flat), d_alpha, 0.0)

    opac = proj.opacity[gss]
    return AlphaGradients(
        rows=rows,
        idx=gss,
        d_alpha=d_alpha,
        opacity=opac,
        g=np.where(contrib, alpha / np.maximum(opac, 1e-12), 0.0),
        d_color=(None if pose_only
                 else tuple(weight * dc for dc in d_color_cols)),
        d_depth=weight * d_depth_rows,
        touched=fc.contrib.sum(axis=0),
        contrib_flat=contrib,
    )


def pair_gradients(fc, proj, d_color, d_depth, d_silhouette,
                   pose_only=False):
    """Compute every per-pair gradient partial; no aggregation.

    :func:`alpha_gradients` followed by the isotropic falloff reverse:
    α = o·g with g = exp(−d²/2σ²), with per-Gaussian factors computed
    once per Gaussian.  ``pose_only=True`` keeps only the partials the
    camera pose depends on (``d_color`` and ``d_opacity`` are None).
    """
    a = alpha_gradients(fc, proj, d_color, d_depth, d_silhouette, pose_only)
    gss, g = a.idx, a.g
    sig = proj.sigma2d
    inv_var = 1.0 / (sig * sig)
    d_g = a.d_alpha * a.opacity
    d_opacity = None if pose_only else a.d_alpha * g
    d_gg = d_g * g

    cu, cv = _columns(fc.centres)
    mu, mv = _columns(proj.mean2d)
    du = cu[a.rows] - mu[gss]
    dv = cv[a.rows] - mv[gss]
    pair_inv_var = inv_var[gss]
    d_mean_u = d_gg * du * pair_inv_var
    d_mean_v = d_gg * dv * pair_inv_var
    d2 = du * du + dv * dv
    d_sigma = d_gg * d2 * (inv_var / sig)[gss]

    return PairGradients(**vars(a), d_mean2d=(d_mean_u, d_mean_v),
                         d_sigma2d=d_sigma, d_opacity=d_opacity)


def backward(result, proj, d_color, d_depth, d_silhouette, pg, stats,
             contribs_out=None, pose_only=False):
    """Batched backward pass over the padded forward cache.

    Pair partials from :func:`pair_gradients`, aggregated by one
    pixel-major :func:`~repro.render.backward.scatter_add` per gradient
    array and added onto ``pg`` (zeros, so the add is exact) — all
    per-Gaussian accumulations are bit-identical to the reference loop's.
    ``contribs_out`` (when given) receives the per-pixel touched-pair
    counts for the sparsity atlas.  ``pose_only=True`` (tracking) skips
    the opacity and colour partials and leaves ``pg``'s opacity and
    colour accumulators untouched; every counter is unchanged.
    """
    fc = result.flat_cache
    if fc is None:
        return
    # Imported here: repro.render.backward imports this module.
    from ..backward import scatter_add

    grads = pair_gradients(fc, proj, d_color, d_depth, d_silhouette,
                           pose_only)
    m = len(proj)
    pg.d_mean2d += scatter_add(grads.idx, grads.d_mean2d, m)
    pg.d_sigma2d += scatter_add(grads.idx, grads.d_sigma2d, m)
    if not pose_only:
        pg.d_opacity += scatter_add(grads.idx, grads.d_opacity, m)
        pg.d_color += scatter_add(grads.idx, grads.d_color, m)
    pg.d_depth += scatter_add(grads.idx, grads.d_depth, m)

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
    wants_pair_alpha=True,
))
