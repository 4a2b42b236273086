"""Vectorized sparse kernels: batched segmented forward/backward passes.

Executes all K pixel pipelines at once over the flattened (pixel,
Gaussian) pair list:

- no sort at all: :func:`~repro.render.kernels.candidates.candidate_pairs`
  ranks the projected Gaussians by depth once per view and emits the
  pairs already pixel-major and front-to-back (the ``(depth, index)`` key
  of ``sort_by_depth``), and the preemptive α filter keeps that order;
- the α stage is a compiled cull and a numpy falloff: the cull keeps the
  pairs whose squared centre distance is within :func:`alpha_cutoff`, and
  :func:`falloff_alpha` (numpy's ``exp``) runs on those survivors alone;
- the composite and the reverse pass run in compiled code (``_native.c``,
  built and loaded by :mod:`~repro.render.kernels.native`) that walks
  each pixel's segment of the CSR pair list one Gaussian per step, as the
  render and reverse-render units of Sec. V do.  Γ is a running product
  and every channel total a running sum — the strictly sequential
  reductions :func:`composite_forward` uses — and every expression keeps
  the operands and order of operations of the per-pixel oracle, so a pair
  that fails α (an exact 1.0 factor and 0.0 weight) is bit-transparent;
- the backward pass computes every pair gradient and aggregates it in the
  same kernel call (:func:`aggregate_gradients`), as the reverse-render
  units feed the aggregation unit: each pair's partials are added onto
  its Gaussian's accumulators in pair order — pixel-major, depth-sorted —
  which is exactly the sequence the reference loop's per-pixel
  ``np.add.at`` scatters add, in the same order from zero.

Each kernel call treats its pixels as padded to the call's longest list
(``tests/padded_oracle.py`` is that slot-major formulation): a pixel
with a shorter list adds ``+0.0`` to each forward total, and its reverse
suffix scans start from the padding term ``(Γ·0)·0``.  Only ``-0.0`` and
NaN results depend on it.

:func:`composite` and the reverse pass are also the engine of the dense
tile pipeline (:mod:`repro.render.rasterize` /
:mod:`repro.render.backward`), which feeds them from its depth-sorted
tile table — one composite and one reverse call per frame, after its own
compiled α stage with :func:`falloff_alpha`'s bits — and aggregates per
(tile, list slot) before a per-Gaussian fold.  :func:`evaluate_alpha`
forms the squared distances itself and is the oracles' α.  The reverse pass has a second, per-pair
mode, :func:`alpha_gradients` (everything up to dL/dα, no falloff, no
aggregation): anisotropic splats (:mod:`repro.render.anisotropic`) run
:func:`forward` on their own conic α and :func:`alpha_gradients` under
their own falloff reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compositing import ALPHA_MAX
from . import native
from .native import f64, i64, pointers, ptr

__all__ = [
    "FlatCompositeCache",
    "AlphaGradients",
    "alpha_cutoff",
    "evaluate_alpha",
    "falloff_alpha",
    "composite",
    "forward",
    "backward",
    "alpha_gradients",
    "aggregate_gradients",
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


_BAD_PAIRS = ("the per-pixel list lengths do not sum to the pair count, or "
              "a pair indexes no projected Gaussian")


def _check_proj(proj):
    m = len(proj)
    if proj.color.shape != (m, 3) or proj.depth.shape != (m,):
        raise ValueError("projected colour/depth arrays do not match the "
                         "number of projected Gaussians")
    return m


def alpha_cutoff(proj, alpha_threshold):
    """Per projected Gaussian, a squared pixel distance beyond which its α
    falls below ``alpha_threshold`` for certain.

    ``o·exp(−d²/2σ²) ≥ τ`` needs ``d² ≤ ln(o/τ)·2σ²``.  The cutoff widens
    that bound by a relative 1e-9 and an absolute 1e-9 in the exponent,
    far more than the few ulps of rounding in :func:`falloff_alpha`, the
    logarithm and the cutoff itself — the absolute term covers ``o`` a hair
    above ``τ``, where ``ln(o/τ)`` is tiny.  It is +∞ when ``τ ≤ 0`` (every
    α passes) and −∞ when ``τ > ALPHA_MAX`` (no clamped α passes); ``o < τ``
    makes it negative on its own.  It is NaN only where α is NaN or below
    ``τ`` at every distance (NaN opacity or σ; σ = 0), so comparing
    against it culls nothing that could pass.  Both pipelines' culls
    (``candidate_cull`` and ``tile_cull``) compare against it.
    """
    if alpha_threshold <= 0.0:
        return np.full(len(proj), np.inf)
    if alpha_threshold > ALPHA_MAX:
        return np.full(len(proj), -np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log(proj.opacity / alpha_threshold)
        sig = proj.sigma2d
        return (log_ratio * (1.0 + 1e-9) + 1e-9) * (2.0 * sig * sig)


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
    callers that computed it themselves (the sparse pipeline's compiled
    cull).  The dense pipeline's ``tile_cull`` and ``alpha_finish`` in
    ``_native.c`` keep these operands and this order around numpy's
    ``exp``."""
    sig = proj.sigma2d
    # opacity·exp(−d2·inv_2var), operands in that order, computed in place:
    # each fresh temporary costs page faults.  An approximate exp_fn (the
    # LUT ablation) returns a fresh array instead.
    x = np.negative(d2)
    x *= (1.0 / (2.0 * sig * sig))[gss]
    g = np.exp(x, out=x) if exp_fn is np.exp else exp_fn(x)
    alpha = np.multiply(proj.opacity[gss], g, out=x)
    clipped = alpha > ALPHA_MAX
    return np.minimum(alpha, ALPHA_MAX, out=alpha), clipped


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
    lengths, gss, background = i64(lengths), i64(gss), f64(background)
    if (gss.shape != (M,) or alpha.shape != (M,) or clipped.shape != (M,)
            or lengths.shape != (K,) or background.shape != (3,)):
        raise ValueError("composite: per-pair arrays, lengths or background "
                         "have the wrong shape")
    # The kernel writes the cache's arrays, so the reverse pass finds
    # their pointers kept with them.
    cache = FlatCompositeCache(
        centres=centres,
        lengths=lengths,
        gss=gss,
        alpha=np.empty(M),
        gamma=np.empty(M),
        contrib=np.empty(M, dtype=bool),
        clipped=np.ascontiguousarray(clipped, dtype=bool),
        gamma_end=np.empty(K),
        gamma_final=np.empty(K),
        touched=np.empty(K, dtype=np.int64),
        background=background,
    )
    color, depth, silhouette = np.empty((K, 3)), np.empty(K), np.empty(K)
    lengths_p, gss_p, touched_p = pointers(
        cache, ("lengths", "gss", "touched"), np.int64)
    gamma_p, alpha_p, gamma_end_p, gamma_final_p, background_p = pointers(
        cache, ("gamma", "alpha", "gamma_end", "gamma_final", "background"))
    contrib_p, = pointers(cache, ("contrib",), bool)
    alpha = f64(alpha)  # held alive through the call
    if native.library().composite_forward(
            K, M, m, lengths_p, gss_p, ptr(alpha),
            *pointers(proj, ("color", "depth")), background_p,
            alpha_threshold, t_min, gamma_p, alpha_p, contrib_p,
            *map(ptr, (color, depth, silhouette)), gamma_end_p,
            gamma_final_p, touched_p):
        raise ValueError(_BAD_PAIRS)
    return color, depth, silhouette, cache


def forward(proj, pairs, centres, background, alpha_threshold, t_min,
            exp_fn, stats, color, depth, silhouette, pair_alpha,
            pair_clipped):
    """Batched forward pass over the shared candidate pair list.

    ``pairs`` must be in composite order — pixel-major, front-to-back —
    as :func:`~repro.render.kernels.candidates.candidate_pairs` emits
    them; this is :func:`composite` over them as they come.
    Returns ``(gss, lengths, caches, flat_cache)``: the flat depth-sorted
    pair list grouped by pixel, the K per-pixel list lengths, the
    per-pixel cache list (all None here) and the flat batch cache.
    ``pair_alpha`` / ``pair_clipped`` are the flat per-pair α values and
    clip flags the pipeline's α stage already evaluated (aligned with
    ``pairs``), so ``exp_fn`` goes unused here.
    """
    K = pairs.num_pixels
    M = pairs.size
    record = stats.record_per_pixel
    if M == 0:
        if record:
            stats.pixel_list_lengths.extend([0] * K)
            stats.per_pixel_contribs.extend([0] * K)
        return np.zeros(0, dtype=int), np.zeros(K, dtype=int), [None] * K, None

    gss, lengths = pairs.gss, pairs.lengths
    out_color, out_depth, out_sil, cache = composite(
        proj, gss, lengths, centres, background, pair_alpha, pair_clipped,
        alpha_threshold, t_min)
    color[:, :] = out_color
    depth[:] = out_depth
    silhouette[:] = out_sil

    contribs_row = cache.touched
    stats.num_contrib_pairs += int(contribs_row.sum())
    if record:
        stats.pixel_list_lengths.extend(int(n) for n in lengths)
        stats.per_pixel_contribs.extend(int(c) for c in contribs_row)

    return gss, lengths, [None] * K, cache


@dataclass
class AlphaGradients:
    """Flat per-pair reverse pass up to dL/dα, in canonical order.

    Nothing here depends on which falloff produced α.  The pair sequence
    is the composite cache's, pixel-major, front-to-back — which is the
    exact (index, value) sequence the per-pixel reference loop scatters,
    so one in-order :func:`~repro.render.backward.scatter_add` per array
    reproduces its accumulation bit for bit.  The vector partials are
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


#: The accumulator arrays of :func:`aggregate_gradients`, in kernel order,
#: with their row shapes.
_ACC_FIELDS = (("d_mean2d", (2,)), ("d_sigma2d", ()), ("d_opacity", ()),
               ("d_color", (3,)), ("d_depth", ()))


def _reverse_inputs(fc, proj, d_color, d_depth, d_silhouette):
    """``(m, inputs)`` of a reverse-pass kernel call, checked: the number
    of projected Gaussians and the pointer arguments up to ``d_sil``, in
    kernel order."""
    K = fc.lengths.size
    m = _check_proj(proj)
    d_color, d_depth, d_silhouette = (f64(d_color), f64(d_depth),
                                      f64(d_silhouette))
    if (d_color.shape != (K, 3) or d_depth.shape != (K,)
            or d_silhouette.shape != (K,)):
        raise ValueError("reverse pass: output gradients must be (K, 3), "
                         "(K,) and (K,) for the cache's K pixels")
    if proj.opacity.shape != (m,):
        raise ValueError("reverse pass: projected opacities have the wrong "
                         "shape")
    return m, (*pointers(fc, ("lengths", "gss"), np.int64),
               *pointers(fc, ("gamma", "alpha")),
               *pointers(fc, ("contrib", "clipped"), bool),
               *pointers(fc, ("gamma_end", "gamma_final", "background")),
               *pointers(proj, ("color", "depth", "opacity")),
               *map(ptr, (d_color, d_depth, d_silhouette)))


def _reverse(fc, proj, d_color, d_depth, d_silhouette, pose_only):
    """One per-pair kernel call of the reverse pass; returns the
    :class:`AlphaGradients` fields."""
    K, P = fc.lengths.size, fc.gss.size
    m, inputs = _reverse_inputs(fc, proj, d_color, d_depth, d_silhouette)
    d_alpha, g, d_depth_out = np.empty(P), np.empty(P), np.empty(P)
    d_color_out = None if pose_only else np.empty((3, P))
    outputs = map(ptr, (d_alpha, g, d_color_out, d_depth_out))
    if native.library().composite_reverse(K, P, m, 0, *inputs, *outputs,
                                          *(None,) * 9):
        raise ValueError(_BAD_PAIRS)
    return dict(
        rows=np.repeat(np.arange(K), fc.lengths),
        idx=fc.gss,
        d_alpha=d_alpha,
        opacity=proj.opacity[fc.gss],
        g=g,
        d_color=None if pose_only else tuple(d_color_out),
        d_depth=d_depth_out,
        touched=fc.touched,
        contrib_flat=fc.contrib,
    )


def alpha_gradients(fc, proj, d_color, d_depth, d_silhouette,
                    pose_only=False):
    """The reverse pass up to dL/dα; no falloff, no aggregation.

    Every arithmetic expression mirrors :func:`composite_backward` term
    for term (same operand values, same association order), with the
    five suffix sums (colour with the background folded in, depth,
    silhouette) scanned back to front per pixel.  ``pose_only=True``
    skips the colour partials (``d_color`` is then None).
    """
    return AlphaGradients(**_reverse(fc, proj, d_color, d_depth,
                                     d_silhouette, pose_only))


def aggregate_gradients(fc, proj, d_color, d_depth, d_silhouette, index,
                        acc, pose_only=False):
    """The reverse pass with the isotropic falloff α = o·g,
    g = exp(−d²/2σ²), aggregated in the same kernel call.

    Each pair's partials (mean, σ, opacity, colour, depth) are added in
    place onto row ``index[p]`` of ``acc``'s five accumulator arrays
    (``d_mean2d`` (n, 2), ``d_sigma2d``, ``d_opacity``, ``d_color``
    (n, 3), ``d_depth``; writeable C-contiguous float64, as
    :meth:`~repro.render.backward.ProjectedGradients.zeros` makes them),
    every accumulator in pair order — the float sequence of ``np.add.at``
    over the flat per-pair partials, at no per-pair array.
    ``pose_only=True`` skips the opacity and colour partials and leaves
    those accumulators untouched.  Nothing is added when the inputs are
    rejected.
    """
    K, P = fc.lengths.size, fc.gss.size
    m, inputs = _reverse_inputs(fc, proj, d_color, d_depth, d_silhouette)
    if (proj.mean2d.shape != (m, 2) or proj.sigma2d.shape != (m,)
            or fc.centres.shape != (K, 2)):
        raise ValueError("reverse pass: projected arrays or pixel centres "
                         "have the wrong shape")
    n = acc.d_sigma2d.shape[0]
    out = []
    for name, row in _ACC_FIELDS:
        if pose_only and name in ("d_opacity", "d_color"):
            out.append(None)
            continue
        a = getattr(acc, name)
        if (a.dtype != np.float64 or not a.flags.c_contiguous
                or not a.flags.writeable or a.shape != (n,) + row):
            raise ValueError(f"reverse pass: accumulator {name} must be a "
                             "writeable C-contiguous float64 array of "
                             f"{n} rows")
        # Kept with the accumulators: re-projection reads them next.
        out.extend(pointers(acc, (name,)))
    index = i64(index)
    if index.shape != (P,):
        raise ValueError("reverse pass: one accumulator index per pair")
    status = native.library().composite_reverse(
        K, P, m, n, *inputs, *(None,) * 4, *pointers(fc, ("centres",)),
        *pointers(proj, ("mean2d", "sigma2d")), ptr(index), *out)
    if status == -2:
        raise MemoryError("reverse pass: no memory for the per-pixel "
                          "scratch")
    if status:
        raise ValueError(_BAD_PAIRS + ", or an accumulator index is out "
                         "of range")


def backward(result, proj, d_color, d_depth, d_silhouette, pg, stats,
             pose_only=False):
    """Batched backward pass over the flat forward cache.

    One :func:`aggregate_gradients` call adds every pair's partials onto
    ``pg``, indexed by the pair's projected Gaussian, pixel-major — the
    sequence the reference loop's per-pixel ``np.add.at`` scatters add,
    so every per-Gaussian accumulation is bit-identical to it.
    ``pose_only=True`` (tracking) skips the opacity and colour partials
    and leaves ``pg``'s opacity and colour accumulators untouched; every
    counter is unchanged.
    """
    fc = result.flat_cache
    if fc is None:
        return
    aggregate_gradients(fc, proj, d_color, d_depth, d_silhouette, fc.gss,
                        pg, pose_only)

    touched = fc.touched
    total_touched = int(touched.sum())
    # The composite checked that the lengths sum to the pair count.
    stats.num_candidate_pairs += fc.gss.size
    stats.num_contrib_pairs += total_touched
    stats.num_atomic_adds += total_touched
    if stats.record_per_pixel:
        nonzero = fc.lengths > 0
        stats.pixel_list_lengths.extend(int(n) for n in fc.lengths[nonzero])
        stats.per_pixel_contribs.extend(int(c) for c in touched[nonzero])
        ids = proj.source_index[fc.gss[fc.contrib]]
        splits = np.cumsum(touched[nonzero])[:-1]
        stats.pixel_contrib_ids.extend(np.split(ids, splits))


from . import KernelBackend, register_kernel  # noqa: E402

register_kernel(KernelBackend(
    name="vectorized",
    description="batched segmented kernels (CSR pair list, compiled "
                "composite)",
    forward=forward,
    backward=backward,
))
