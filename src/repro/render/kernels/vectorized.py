"""Vectorized sparse kernels: batched segmented forward/backward passes.

Executes all K pixel pipelines at once over the flattened (pixel,
Gaussian) pair list:

- no sort at all: :func:`~repro.render.kernels.candidates.candidate_pairs`
  ranks the projected Gaussians by depth once per view and emits the
  pairs already pixel-major and front-to-back (the ``(depth, index)`` key
  of ``sort_by_depth``), and the preemptive α filter keeps that order;
- the α stage runs in numpy (its ``exp``); the composite and the reverse
  pass run in one compiled kernel (``_native.c``, built and loaded by
  :mod:`~repro.render.kernels.native`) that walks each pixel's segment
  of the CSR pair list one Gaussian per step, as the render and
  reverse-render units of Sec. V do.  Γ is a running product and every
  channel total a running sum — the strictly sequential reductions
  :func:`composite_forward` uses — and every expression keeps the
  operands and order of operations of the per-pixel oracle, so a pair
  that fails α (an exact 1.0 factor and 0.0 weight) is bit-transparent;
- the backward pass computes every pair gradient in one kernel call and
  aggregates per Gaussian with one
  :func:`~repro.render.backward.scatter_add` (a per-column
  ``np.bincount``) whose (index, value) sequence — pixel-major,
  depth-sorted — is exactly the sequence the reference loop's per-pixel
  ``np.add.at`` scatters produce, added in the same order from zero.

Each kernel call treats its pixels as padded to the call's longest list
(``tests/padded_oracle.py`` is that slot-major formulation): a pixel
with a shorter list adds ``+0.0`` to each forward total, and its reverse
suffix scans start from the padding term ``(Γ·0)·0``.  Only ``-0.0`` and
NaN results depend on it.

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
from . import native

__all__ = [
    "FlatCompositeCache",
    "PairGradients",
    "AlphaGradients",
    "evaluate_alpha",
    "falloff_alpha",
    "composite",
    "forward",
    "backward",
    "alpha_gradients",
    "pair_gradients",
]


@dataclass
class FlatCompositeCache:
    """Backward-pass state of the batched forward pass.

    Shapes: K pixels, M = total surviving pairs, pixel-major and
    front-to-back within a pixel.
    """

    centres: np.ndarray       # (K, 2) continuous pixel centres
    lengths: np.ndarray       # (K,) per-pixel list lengths
    gss: np.ndarray           # (M,) flat sorted projected-Gaussian indices
    alpha: np.ndarray         # (M,) α, zeroed where not contributing
    gamma: np.ndarray         # (M,) exclusive transmittance prefix
    contrib: np.ndarray       # (M,) bool
    clipped: np.ndarray       # (M,) bool — α hit ALPHA_MAX
    gamma_end: np.ndarray     # (K,) Γ after the pixel's last pair
    gamma_final: np.ndarray   # (K,) 1 - silhouette
    touched: np.ndarray       # (K,) per-pixel contributing-pair counts
    background: np.ndarray    # (3,)


def _f64(a) -> np.ndarray:
    """``a`` as a C-contiguous float64 array (no copy if it already is)."""
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _ptr(a):
    """The data pointer the kernel reads or writes; None passes NULL."""
    return None if a is None else a.ctypes.data


_BAD_PAIRS = ("the per-pixel list lengths do not sum to the pair count, or "
              "a pair indexes no projected Gaussian")


def _check_proj(proj):
    m = len(proj)
    if proj.color.shape != (m, 3) or proj.depth.shape != (m,):
        raise ValueError("projected colour/depth arrays do not match the "
                         "number of projected Gaussians")
    return m


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
    counts.  One kernel call walks every pixel's segment (see the module
    docstring for its arithmetic).

    Returns ``(color, depth, silhouette, cache)``; ``color`` has the
    background composited under, and ``cache`` (the backward state) is
    None when no pixel has a pair.
    """
    K = lengths.size
    if gss.size == 0:
        return np.tile(background, (K, 1)), np.zeros(K), np.zeros(K), None
    M = gss.size
    m = _check_proj(proj)
    lengths, gss, background = _i64(lengths), _i64(gss), _f64(background)
    if (gss.shape != (M,) or alpha.shape != (M,) or clipped.shape != (M,)
            or lengths.shape != (K,) or background.shape != (3,)):
        raise ValueError("composite: per-pair arrays, lengths or background "
                         "have the wrong shape")
    gamma, alpha_out = np.empty(M), np.empty(M)
    contrib = np.empty(M, dtype=bool)
    color, depth, silhouette = np.empty((K, 3)), np.empty(K), np.empty(K)
    gamma_end, gamma_final = np.empty(K), np.empty(K)
    touched = np.empty(K, dtype=np.int64)
    # Locals hold every argument array alive through the call.
    inputs = (lengths, gss, _f64(alpha), _f64(proj.color), _f64(proj.depth),
              background)
    outputs = (gamma, alpha_out, contrib, color, depth, silhouette,
               gamma_end, gamma_final, touched)
    if native.library().composite_forward(
            K, M, m, *map(_ptr, inputs), alpha_threshold, t_min,
            *map(_ptr, outputs)):
        raise ValueError(_BAD_PAIRS)
    cache = FlatCompositeCache(
        centres=centres,
        lengths=lengths,
        gss=gss,
        alpha=alpha_out,
        gamma=gamma,
        contrib=contrib,
        clipped=np.ascontiguousarray(clipped, dtype=bool),
        gamma_end=gamma_end,
        gamma_final=gamma_final,
        touched=touched,
        background=background,
    )
    return color, depth, silhouette, cache


def forward(proj, pairs, centres, background, alpha_threshold, t_min,
            keep_cache, exp_fn, stats, color, depth, silhouette,
            pair_alpha=None, pair_clipped=None, contribs_out=None):
    """Batched forward pass over the shared candidate pair list.

    ``pairs`` must be in composite order — pixel-major, front-to-back —
    as :func:`~repro.render.kernels.candidates.candidate_pairs` emits
    them; this is :func:`composite` over them as they come.
    Returns ``(gss, lengths, caches, flat_cache)``: the flat depth-sorted
    pair list grouped by pixel, the K per-pixel list lengths, the
    per-pixel cache list (all None here) and the flat batch cache.
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

    contribs_row = cache.touched
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
    is the composite cache's, pixel-major, front-to-back — which is the
    exact (index, value) sequence the per-pixel reference loop scatters,
    so one in-order :func:`~repro.render.backward.scatter_add` per array
    reproduces its accumulation bit for bit (the software analogue of the
    accelerator's aggregation scoreboard).  The vector partials are kept
    as contiguous per-component columns, which ``scatter_add`` bins
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


def _reverse(fc, proj, d_color, d_depth, d_silhouette, pose_only, falloff):
    """One kernel call of the reverse pass; returns the
    :class:`AlphaGradients` fields and, with ``falloff``, the isotropic
    falloff partials ``(d_mean2d, d_sigma2d, d_opacity)`` too."""
    K, P = fc.lengths.size, fc.gss.size
    m = _check_proj(proj)
    d_color, d_depth, d_silhouette = (_f64(d_color), _f64(d_depth),
                                      _f64(d_silhouette))
    if (d_color.shape != (K, 3) or d_depth.shape != (K,)
            or d_silhouette.shape != (K,)):
        raise ValueError("reverse pass: output gradients must be (K, 3), "
                         "(K,) and (K,) for the cache's K pixels")
    if proj.opacity.shape != (m,) or falloff and (
            proj.mean2d.shape != (m, 2) or proj.sigma2d.shape != (m,)
            or fc.centres.shape != (K, 2)):
        raise ValueError("reverse pass: projected arrays or pixel centres "
                         "have the wrong shape")
    d_alpha, g, d_depth_out = np.empty(P), np.empty(P), np.empty(P)
    d_color_out = None if pose_only else np.empty((3, P))
    d_mean = d_sigma = d_opacity = None
    centres = mean2d = sigma2d = None
    if falloff:
        d_mean, d_sigma = np.empty((2, P)), np.empty(P)
        d_opacity = None if pose_only else np.empty(P)
        centres, mean2d, sigma2d = (_f64(fc.centres), _f64(proj.mean2d),
                                    _f64(proj.sigma2d))
    opacity = _f64(proj.opacity)
    args = (fc.lengths, fc.gss, fc.gamma, fc.alpha, fc.contrib, fc.clipped,
            fc.gamma_end, fc.gamma_final, fc.background, _f64(proj.color),
            _f64(proj.depth), opacity, d_color, d_depth, d_silhouette,
            d_alpha, g, d_color_out, d_depth_out,
            centres, mean2d, sigma2d, d_mean, d_sigma, d_opacity)
    if native.library().composite_reverse(K, P, m, *map(_ptr, args)):
        raise ValueError(_BAD_PAIRS)
    fields = dict(
        rows=np.repeat(np.arange(K), fc.lengths),
        idx=fc.gss,
        d_alpha=d_alpha,
        opacity=opacity[fc.gss],
        g=g,
        d_color=None if pose_only else tuple(d_color_out),
        d_depth=d_depth_out,
        touched=fc.touched,
        contrib_flat=fc.contrib,
    )
    if falloff:
        fields.update(d_mean2d=tuple(d_mean), d_sigma2d=d_sigma,
                      d_opacity=d_opacity)
    return fields


def alpha_gradients(fc, proj, d_color, d_depth, d_silhouette,
                    pose_only=False):
    """The reverse pass up to dL/dα; no falloff, no aggregation.

    Every arithmetic expression mirrors :func:`composite_backward` term
    for term (same operand values, same association order), with the
    five suffix sums (colour with the background folded in, depth,
    silhouette) scanned back to front per pixel.  All math is per pixel,
    so the dense engine can run it one pixel block at a time and get the
    same bits as one global pass.  ``pose_only=True`` skips the colour
    partials, which reach no geometric gradient (``d_color`` is then
    None).
    """
    return AlphaGradients(**_reverse(fc, proj, d_color, d_depth,
                                     d_silhouette, pose_only, falloff=False))


def pair_gradients(fc, proj, d_color, d_depth, d_silhouette,
                   pose_only=False):
    """Compute every per-pair gradient partial; no aggregation.

    :func:`alpha_gradients` followed by the isotropic falloff reverse:
    α = o·g with g = exp(−d²/2σ²), in the same kernel call.
    ``pose_only=True`` keeps only the partials the camera pose depends
    on (``d_color`` and ``d_opacity`` are None).
    """
    return PairGradients(**_reverse(fc, proj, d_color, d_depth,
                                    d_silhouette, pose_only, falloff=True))


def backward(result, proj, d_color, d_depth, d_silhouette, pg, stats,
             contribs_out=None, pose_only=False):
    """Batched backward pass over the flat forward cache.

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
    description="batched segmented kernels (CSR pair list, compiled "
                "composite)",
    forward=forward,
    backward=backward,
    wants_pair_alpha=True,
))
