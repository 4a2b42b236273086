"""Alpha-compositing core shared by the tile-based and pixel-based pipelines.

Implements Eqn. 1 of the paper and its exact reverse.  The forward routine
takes a batch of pixels and a *shared, depth-sorted* candidate Gaussian
list (the tile pipeline passes a tile's pixels with the tile list; the
pixel pipeline passes a single pixel with its own pre-filtered list) and
produces color / depth / silhouette maps plus everything the backward pass
needs.

Rendered channels (SplaTAM-style RGB-D SLAM needs all three):

- ``color``      ``C(p)      = sum_i Gamma_i alpha_i c_i + Gamma_final * bg``
- ``depth``      ``D(p)      = sum_i Gamma_i alpha_i z_i``
- ``silhouette`` ``S(p)      = sum_i Gamma_i alpha_i  (= 1 - Gamma_final)``

Early termination follows the reference CUDA rasterizer: a Gaussian whose
integration would push the transmittance below ``t_min`` is skipped and
integration stops there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALPHA_THRESHOLD",
    "ALPHA_MAX",
    "T_MIN",
    "CompositeCache",
    "PairGradients",
    "composite_forward",
    "composite_backward",
]

# Defaults matching the reference 3DGS rasterizer.
ALPHA_THRESHOLD = 1.0 / 255.0
ALPHA_MAX = 0.999
T_MIN = 1e-4


@dataclass
class CompositeCache:
    """Everything the backward pass needs, kept from the forward pass.

    Shapes use P = number of pixels in the batch, L = candidate list length.
    ``contrib`` marks the pairs that actually passed α-checking and were
    integrated before early termination; all gradients flow only through
    those pairs.
    """

    pixels: np.ndarray        # (P, 2) continuous pixel-centre coordinates
    alpha: np.ndarray         # (P, L) α of each pair (0 where not contributing)
    gamma: np.ndarray         # (P, L) transmittance in front of each pair
    contrib: np.ndarray       # (P, L) bool
    clipped: np.ndarray       # (P, L) bool — α hit ALPHA_MAX (gradient gated)
    gamma_final: np.ndarray   # (P,) transmittance remaining after the list
    color: np.ndarray         # (P, 3) composited color (without background)
    depth_out: np.ndarray     # (P,)
    background: np.ndarray    # (3,)


@dataclass
class PairGradients:
    """Per-candidate-Gaussian gradients, summed over the pixel batch.

    All arrays have length L (the candidate list), aligned with the inputs
    of :func:`composite_forward`; the caller scatters them to the projected
    Gaussians (the aggregation stage) and then to the cloud.
    """

    d_mean2d: np.ndarray      # (L, 2)
    d_sigma2d: np.ndarray     # (L,)
    d_opacity: np.ndarray     # (L,)
    d_color: np.ndarray       # (L, 3)
    d_depth: np.ndarray       # (L,) direct gradient from the depth channel
    num_pairs_touched: int    # contributing pairs — the atomicAdd count
    d_alpha: np.ndarray       # (P, L) dL/dα per pair, before the falloff


def composite_forward(
    pixels: np.ndarray,
    mean2d: np.ndarray,
    sigma2d: np.ndarray,
    depth: np.ndarray,
    opacity: np.ndarray,
    color: np.ndarray,
    background: np.ndarray,
    alpha_threshold: float = ALPHA_THRESHOLD,
    t_min: float = T_MIN,
    exp_fn=np.exp,
):
    """Composite a depth-sorted candidate list over a batch of pixels.

    ``exp_fn`` evaluates ``exp(x)`` for the Gaussian falloff; pass an
    approximation (e.g. ``lambda x: lut(-x)`` for a :class:`repro.hw.ExpLUT`)
    to study LUT-based α-checking (Sec. V-C ablation).

    Parameters
    ----------
    pixels:
        ``(P, 2)`` continuous pixel-centre coordinates ``(u, v)``.
    mean2d, sigma2d, depth, opacity, color:
        Candidate Gaussians, already depth-sorted front-to-back, length L.
    background:
        ``(3,)`` background color composited under the splats.

    Returns
    -------
    ``(color, depth_map, silhouette, cache)`` where the first three have
    leading dimension P and ``cache`` is a :class:`CompositeCache`.
    """
    pixels = np.atleast_2d(np.asarray(pixels, dtype=float))
    background = np.asarray(background, dtype=float).reshape(3)
    P = pixels.shape[0]
    L = mean2d.shape[0]

    if L == 0:
        zero = np.zeros((P, 0))
        cache = CompositeCache(
            pixels=pixels,
            alpha=zero,
            gamma=zero,
            contrib=zero.astype(bool),
            clipped=zero.astype(bool),
            gamma_final=np.ones(P),
            color=np.zeros((P, 3)),
            depth_out=np.zeros(P),
            background=background,
        )
        out_color = np.tile(background, (P, 1))
        return out_color, np.zeros(P), np.zeros(P), cache

    du = pixels[:, 0:1] - mean2d[None, :, 0]
    dv = pixels[:, 1:2] - mean2d[None, :, 1]
    d2 = du * du + dv * dv
    inv_2var = 1.0 / (2.0 * sigma2d * sigma2d)
    g = exp_fn(-d2 * inv_2var[None, :])
    alpha_raw = opacity[None, :] * g
    clipped = alpha_raw > ALPHA_MAX
    alpha = np.minimum(alpha_raw, ALPHA_MAX)
    passes = alpha >= alpha_threshold

    # Exclusive front-to-back transmittance using only passing pairs.
    alpha_eff = np.where(passes, alpha, 0.0)
    one_minus = 1.0 - alpha_eff
    gamma_incl = np.cumprod(one_minus, axis=1)
    gamma = np.concatenate([np.ones((P, 1)), gamma_incl[:, :-1]], axis=1)

    # Early termination: skip a pair (and all later ones) whose integration
    # would drop the transmittance below t_min.
    alive = gamma_incl >= t_min
    contrib = passes & alive

    weight = np.where(contrib, gamma * alpha, 0.0)
    # Channel sums as strictly sequential front-to-back reductions (cumsum
    # along the list, take the last prefix).  A matmul would let BLAS pick
    # an unspecified reduction order; the sequential order is the one a
    # padded/batched kernel can reproduce bit-for-bit (appending zeros to
    # a sequential sum never changes it).
    out_color = np.cumsum(weight[:, :, None] * color[None, :, :],
                          axis=1)[:, -1, :]
    depth_map = np.cumsum(weight * depth[None, :], axis=1)[:, -1]
    silhouette = np.cumsum(weight, axis=1)[:, -1]
    gamma_final = 1.0 - silhouette
    out_color_bg = out_color + gamma_final[:, None] * background[None, :]

    # Zero out the non-contributing alphas in the cache so the backward
    # pass can use the arrays directly.
    alpha_cached = np.where(contrib, alpha, 0.0)
    cache = CompositeCache(
        pixels=pixels,
        alpha=alpha_cached,
        gamma=gamma,
        contrib=contrib,
        clipped=clipped,
        gamma_final=gamma_final,
        color=out_color,
        depth_out=depth_map,
        background=background,
    )
    return out_color_bg, depth_map, silhouette, cache


def composite_backward(
    cache: CompositeCache,
    mean2d: np.ndarray,
    sigma2d: np.ndarray,
    depth: np.ndarray,
    opacity: np.ndarray,
    color: np.ndarray,
    d_color: np.ndarray,
    d_depth: np.ndarray,
    d_silhouette: np.ndarray,
) -> PairGradients:
    """Reverse the color integration (reverse rasterization stage).

    ``d_color``/``d_depth``/``d_silhouette`` are the loss gradients at the
    batch's pixels (shapes ``(P, 3)``, ``(P,)``, ``(P,)``).  Returns the
    candidate-list gradients summed over the pixel batch.
    """
    P, L = cache.alpha.shape
    d_color = np.atleast_2d(np.asarray(d_color, dtype=float))
    d_depth = np.atleast_1d(np.asarray(d_depth, dtype=float))
    d_silhouette = np.atleast_1d(np.asarray(d_silhouette, dtype=float))

    if L == 0:
        return PairGradients(
            d_mean2d=np.zeros((0, 2)),
            d_sigma2d=np.zeros(0),
            d_opacity=np.zeros(0),
            d_color=np.zeros((0, 3)),
            d_depth=np.zeros(0),
            num_pairs_touched=0,
            d_alpha=np.zeros((P, 0)),
        )

    alpha = cache.alpha          # (P, L), zero where not contributing
    gamma = cache.gamma          # (P, L)
    contrib = cache.contrib
    weight = gamma * alpha       # (P, L)

    # Per-pair channel values V: color (3), depth (1), silhouette (1).
    # Suffix sums S_i = sum_{j > i} W_j V_j, plus the background folded in
    # as the term composited after the whole list.
    w_c = weight[:, :, None] * color[None, :, :]          # (P, L, 3)
    w_d = weight * depth[None, :]                         # (P, L)
    # Reverse-cumsum excluding self.
    suffix_c = np.flip(np.cumsum(np.flip(w_c, axis=1), axis=1), axis=1) - w_c
    suffix_d = np.flip(np.cumsum(np.flip(w_d, axis=1), axis=1), axis=1) - w_d
    suffix_s = (np.flip(np.cumsum(np.flip(weight, axis=1), axis=1), axis=1)
                - weight)
    # Background contributes Gamma_final * bg after every pair.
    suffix_c = suffix_c + cache.gamma_final[:, None, None] * cache.background

    one_minus = np.where(contrib, 1.0 - alpha, 1.0)
    inv_one_minus = 1.0 / np.maximum(one_minus, 1e-12)

    # dOut_ch / d alpha_i = Gamma_i V_i - S_i / (1 - alpha_i).  The channel
    # contraction is written as an explicit three-term sum (not einsum) so
    # the addition order is pinned down and a batched kernel can match it
    # exactly.
    term_c = (gamma[:, :, None] * color[None, :, :]
              - suffix_c * inv_one_minus[:, :, None])
    d_alpha = (d_color[:, None, 0] * term_c[:, :, 0]
               + d_color[:, None, 1] * term_c[:, :, 1]
               + d_color[:, None, 2] * term_c[:, :, 2])
    d_alpha = d_alpha + d_depth[:, None] * (
        gamma * depth[None, :] - suffix_d * inv_one_minus)
    d_alpha = d_alpha + d_silhouette[:, None] * (gamma - suffix_s * inv_one_minus)
    d_alpha = np.where(contrib & ~cache.clipped, d_alpha, 0.0)

    # alpha = opacity * g with g = exp(-d2 / (2 sigma^2)).
    g = np.where(contrib, alpha / np.maximum(opacity[None, :], 1e-12), 0.0)
    d_g = d_alpha * opacity[None, :]
    d_opacity = (d_alpha * g).sum(axis=0)

    du = cache.pixels[:, 0:1] - mean2d[None, :, 0]
    dv = cache.pixels[:, 1:2] - mean2d[None, :, 1]
    inv_var = 1.0 / (sigma2d * sigma2d)
    # d g / d mean2d = g * (p - mu) / sigma^2
    d_mean_u = (d_g * g * du * inv_var[None, :]).sum(axis=0)
    d_mean_v = (d_g * g * dv * inv_var[None, :]).sum(axis=0)
    d_mean2d = np.stack([d_mean_u, d_mean_v], axis=-1)
    # d g / d sigma = g * d2 / sigma^3
    d2 = du * du + dv * dv
    d_sigma2d = (d_g * g * d2 * (inv_var / sigma2d)[None, :]).sum(axis=0)

    # Direct channel gradients.
    d_color_out = np.einsum("pl,pc->lc", weight, d_color)
    d_depth_out = (weight * d_depth[:, None]).sum(axis=0)

    return PairGradients(
        d_mean2d=d_mean2d,
        d_sigma2d=d_sigma2d,
        d_opacity=d_opacity,
        d_color=d_color_out,
        d_depth=d_depth_out,
        num_pairs_touched=int(contrib.sum()),
        d_alpha=d_alpha,
    )
