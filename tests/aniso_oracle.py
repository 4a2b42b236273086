"""Per-pixel loop oracle of the anisotropic sparse renderer.

The pixel-based pipeline for full-covariance splats as a plain loop over
the sampled pixels: each pixel's α-surviving candidates are depth-sorted
with :func:`sort_by_depth` and composited by the isotropic
:func:`composite_forward` fed each pair's conic α as its "opacity" (the
pixel sitting exactly on a unit splat's centre, so g = 1); the backward
runs :func:`composite_backward` per pixel, takes its dL/dα and colour and
depth partials, and scatters every partial with ``np.add.at``.  Slow, but
trivially auditable; the equivalence suite holds
:func:`repro.render.render_sparse_anisotropic` /
:func:`repro.render.backward_sparse_anisotropic` bit-identical to it.

The loop reads dL/dα itself, not ``composite_backward``'s opacity
gradient: that one is dL/dα times ``g = α / max(o, 1e-12)``, which is 1
for the "opacity = α" encoding only while α >= 1e-12 (a τ = 0 needle's
bbox corners reach α ~ 1e-300).  The loop records the per-pixel
contributing IDs in the *forward* stats; the engine records them in the
backward, where every consumer reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.covariance import covariance_gradients
from repro.gaussians.se3 import point_jacobian_wrt_twist
from repro.render.anisotropic import (
    AnisoGradients,
    AnisotropicCloud,
    ProjectedAnisotropic,
    project_anisotropic,
)
from repro.render.compositing import (
    ALPHA_MAX,
    ALPHA_THRESHOLD,
    T_MIN,
    CompositeCache,
    composite_backward,
    composite_forward,
)
from repro.render.sorting import sort_by_depth
from repro.render.stats import PipelineStats


@dataclass
class AnisoOracleResult:
    """Sparse forward outputs plus the caches the backward pass needs."""

    pixels: np.ndarray
    color: np.ndarray
    depth: np.ndarray
    silhouette: np.ndarray
    proj: ProjectedAnisotropic
    pixel_lists: List[np.ndarray]
    caches: List[Optional[CompositeCache]]
    stats: PipelineStats = field(default_factory=PipelineStats)

    @property
    def final_transmittance(self) -> np.ndarray:
        return 1.0 - self.silhouette


def _conic_alpha(centres: np.ndarray, mean2d: np.ndarray, conic: np.ndarray,
                 opacity: np.ndarray) -> np.ndarray:
    """``(P, L)`` alphas: ``o * exp(-0.5 d^T C d)`` per pixel-Gaussian pair."""
    du = centres[:, 0:1] - mean2d[None, :, 0]
    dv = centres[:, 1:2] - mean2d[None, :, 1]
    power = 0.5 * (conic[None, :, 0] * du * du
                   + 2.0 * conic[None, :, 1] * du * dv
                   + conic[None, :, 2] * dv * dv)
    return np.minimum(opacity[None, :] * np.exp(-power), ALPHA_MAX)


def render_oracle(
    cloud: AnisotropicCloud,
    camera: Camera,
    pixels: np.ndarray,
    background: Optional[np.ndarray] = None,
    alpha_threshold: float = ALPHA_THRESHOLD,
    t_min: float = T_MIN,
    blur: float = 0.0,
) -> AnisoOracleResult:
    """Pixel-based forward pass over ``pixels`` with anisotropic splats.

    Mirrors :func:`repro.core.pixel_pipeline.render_sparse`: per-pixel
    projection with preemptive α-checking, per-pixel depth sort, then
    Eqn. 1 compositing; the same workload counters are produced.
    """
    intr = camera.intrinsics
    bg = np.zeros(3) if background is None else np.asarray(background, float)
    pixels = np.atleast_2d(np.asarray(pixels, dtype=int))
    K = pixels.shape[0]

    proj = project_anisotropic(cloud, camera, blur=blur)
    stats = PipelineStats(
        pipeline="pixel",
        image_width=intr.width,
        image_height=intr.height,
        num_gaussians=len(cloud),
        num_projected=len(proj),
        num_pixels=K,
    )
    color = np.tile(bg, (K, 1))
    depth = np.zeros(K)
    silhouette = np.zeros(K)
    pixel_lists: List[np.ndarray] = []
    caches: List[Optional[CompositeCache]] = []
    if len(proj) == 0 or K == 0:
        stats.per_pixel_contribs = [0] * K
        return AnisoOracleResult(pixels, color, depth, silhouette, proj,
                                 [np.zeros(0, dtype=int)] * K,
                                 [None] * K, stats)

    centres = pixels + 0.5
    du = centres[:, 0:1] - proj.mean2d[None, :, 0]
    dv = centres[:, 1:2] - proj.mean2d[None, :, 1]
    r = proj.radius[None, :]
    in_bbox = (np.abs(du) <= r) & (np.abs(dv) <= r)
    stats.num_candidate_pairs += int(in_bbox.sum())
    alpha = _conic_alpha(centres, proj.mean2d, proj.conic, proj.opacity)
    survives = in_bbox & (alpha >= alpha_threshold)
    stats.num_alpha_checks += int(in_bbox.sum())

    for k in range(K):
        cand = sort_by_depth(np.nonzero(survives[k])[0], proj.depth)
        pixel_lists.append(cand)
        stats.num_sort_keys += cand.size
        stats.pixel_list_lengths.append(int(cand.size))
        if cand.size == 0:
            caches.append(None)
            stats.per_pixel_contribs.append(0)
            continue
        # Reuse the isotropic compositor by feeding it the already-known
        # alphas: encode each pair's alpha as an "opacity" with the pixel
        # exactly at the splat centre (sigma arbitrary).
        pair_alpha = alpha[k, cand]
        out_color, out_depth, out_sil, cache = composite_forward(
            np.zeros((1, 2)),
            mean2d=np.zeros((cand.size, 2)),
            sigma2d=np.ones(cand.size),
            depth=proj.depth[cand],
            opacity=pair_alpha,
            color=proj.color[cand],
            background=bg,
            alpha_threshold=alpha_threshold,
            t_min=t_min,
        )
        color[k] = out_color[0]
        depth[k] = out_depth[0]
        silhouette[k] = out_sil[0]
        contribs = int(cache.contrib.sum())
        stats.num_contrib_pairs += contribs
        stats.per_pixel_contribs.append(contribs)
        stats.pixel_contrib_ids.append(
            proj.source_index[cand[cache.contrib[0]]])
        caches.append(cache)

    return AnisoOracleResult(pixels, color, depth, silhouette, proj,
                             pixel_lists, caches, stats)


def backward_oracle(
    result: AnisoOracleResult,
    cloud: AnisotropicCloud,
    camera: Camera,
    d_color: np.ndarray,
    d_depth: np.ndarray,
    d_silhouette: np.ndarray,
) -> AnisoGradients:
    """Backward pass of the anisotropic pixel pipeline.

    Gradients flow through the conic (EWA) projection into all covariance
    parameters.  The camera-twist gradient includes every path through the
    camera-frame point ``p_cam`` (projection Jacobian included); the
    dependence of the covariance on the world-to-camera *rotation* is
    omitted, matching the approximation used by 3DGS-SLAM trackers — the
    twist's translational components are exact.
    """
    proj = result.proj
    intr = camera.intrinsics
    K = result.pixels.shape[0]
    M = len(proj)
    n = len(cloud)

    d_color = np.atleast_2d(np.asarray(d_color, dtype=float))
    d_depth_in = np.atleast_1d(np.asarray(d_depth, dtype=float))
    d_sil = np.atleast_1d(np.asarray(d_silhouette, dtype=float))

    stats = PipelineStats(pipeline="pixel", num_gaussians=n,
                          num_projected=M, num_pixels=K,
                          image_width=intr.width, image_height=intr.height)
    d_alpha_terms_mean = np.zeros((M, 2))
    d_conic = np.zeros((M, 3))
    d_opacity = np.zeros(M)
    d_colors_proj = np.zeros((M, 3))
    d_depth_proj = np.zeros(M)

    centres = result.pixels + 0.5
    for k in range(K):
        cand = result.pixel_lists[k]
        cache = result.caches[k]
        if cache is None or cand.size == 0:
            continue
        du = centres[k, 0] - proj.mean2d[cand, 0]
        dv = centres[k, 1] - proj.mean2d[cand, 1]
        a = proj.conic[cand, 0]
        b = proj.conic[cand, 1]
        c = proj.conic[cand, 2]
        power = 0.5 * (a * du * du + 2 * b * du * dv + c * dv * dv)
        g = np.exp(-power)
        o = proj.opacity[cand]
        alpha_raw = o * g
        pair_alpha = np.minimum(alpha_raw, ALPHA_MAX)

        # The forward fed each pair's alpha as the "opacity" of a splat
        # centred on the pixel; the shared backward's dL/dα is the
        # pair's own.
        pair = composite_backward(
            cache,
            mean2d=np.zeros((cand.size, 2)),
            sigma2d=np.ones(cand.size),
            depth=proj.depth[cand],
            opacity=pair_alpha,
            color=proj.color[cand],
            d_color=d_color[k:k + 1],
            d_depth=d_depth_in[k:k + 1],
            d_silhouette=d_sil[k:k + 1],
        )
        live = alpha_raw <= ALPHA_MAX  # clipped pairs get no alpha gradient
        d_pair_alpha = np.where(live, pair.d_alpha[0], 0.0)

        np.add.at(d_opacity, cand, d_pair_alpha * g)
        d_g = d_pair_alpha * o
        coeff = d_g * g
        # d power / d mean2d = -(C d); alpha = o exp(-power).
        np.add.at(d_alpha_terms_mean, cand, np.stack([
            coeff * (a * du + b * dv),
            coeff * (b * du + c * dv),
        ], axis=-1))
        np.add.at(d_conic, cand, np.stack([
            -coeff * 0.5 * du * du,
            -coeff * du * dv,
            -coeff * 0.5 * dv * dv,
        ], axis=-1))
        np.add.at(d_colors_proj, cand, pair.d_color)
        np.add.at(d_depth_proj, cand, pair.d_depth)
        stats.num_contrib_pairs += pair.num_pairs_touched
        stats.num_atomic_adds += pair.num_pairs_touched
        stats.pixel_list_lengths.append(int(cand.size))

    # ---- conic -> 2D covariance -> (Sigma3D, T, p_cam) ----
    # C = Sigma2^-1  =>  dL/dSigma2 = -C G_C C with G_C the symmetric
    # matrix carrying (da, db, dc).
    G_C = np.zeros((M, 2, 2))
    G_C[:, 0, 0] = d_conic[:, 0]
    G_C[:, 0, 1] = G_C[:, 1, 0] = 0.5 * d_conic[:, 1]
    G_C[:, 1, 1] = d_conic[:, 2]
    Cm = np.zeros((M, 2, 2))
    Cm[:, 0, 0] = proj.conic[:, 0]
    Cm[:, 0, 1] = Cm[:, 1, 0] = proj.conic[:, 1]
    Cm[:, 1, 1] = proj.conic[:, 2]
    G_sigma2 = -np.einsum("mij,mjk,mkl->mil", Cm, G_C, Cm)

    # Sigma2 = T Sigma3 T^T: dL/dSigma3 = T^T G T; dL/dT = 2 G T Sigma3.
    G_sigma3 = np.einsum("mji,mjk,mkl->mil", proj.T, G_sigma2, proj.T)
    d_T = 2.0 * np.einsum("mij,mjk,mkl->mil", G_sigma2, proj.T, proj.sigma3d)

    # T = J W: dL/dJ = dL/dT W^T; J depends on p_cam.
    W = camera.pose_w2c[:3, :3]
    d_J = np.einsum("mij,kj->mik", d_T, W)
    x, y, z = proj.p_cam[:, 0], proj.p_cam[:, 1], proj.p_cam[:, 2]
    inv_z2 = 1.0 / (z * z)
    d_p_cam = np.zeros((M, 3))
    d_p_cam[:, 0] += d_J[:, 0, 2] * (-intr.fx * inv_z2)
    d_p_cam[:, 1] += d_J[:, 1, 2] * (-intr.fy * inv_z2)
    d_p_cam[:, 2] += (d_J[:, 0, 0] * (-intr.fx * inv_z2)
                      + d_J[:, 0, 2] * (2 * intr.fx * x / (z ** 3))
                      + d_J[:, 1, 1] * (-intr.fy * inv_z2)
                      + d_J[:, 1, 2] * (2 * intr.fy * y / (z ** 3)))

    # mean2d path (u = fx x/z + cx ...), plus the direct depth channel.
    d_u, d_v = d_alpha_terms_mean[:, 0], d_alpha_terms_mean[:, 1]
    d_p_cam[:, 0] += d_u * intr.fx / z
    d_p_cam[:, 1] += d_v * intr.fy / z
    d_p_cam[:, 2] += (-d_u * intr.fx * x * inv_z2
                      - d_v * intr.fy * y * inv_z2
                      + d_depth_proj)

    # ---- scatter to cloud parameters ----
    d_log_scales_proj, d_quats_proj = covariance_gradients(
        cloud.quaternions[proj.source_index],
        cloud.scales[proj.source_index], G_sigma3)
    op = proj.opacity
    d_logit_proj = d_opacity * op * (1.0 - op)
    raw_color = cloud.colors[proj.source_index]
    gate = ((raw_color > 0.0) & (raw_color < 1.0)) | (
        (raw_color <= 0.0) & (d_colors_proj < 0.0)) | (
        (raw_color >= 1.0) & (d_colors_proj > 0.0))
    d_colors_gated = np.where(gate, d_colors_proj, 0.0)

    out = AnisoGradients(
        d_means=np.zeros((n, 3)),
        d_log_scales=np.zeros((n, 3)),
        d_quaternions=np.zeros((n, 4)),
        d_logit_opacities=np.zeros(n),
        d_colors=np.zeros((n, 3)),
        d_pose_twist=np.zeros(6),
        stats=stats,
    )
    src = proj.source_index
    np.add.at(out.d_means, src, d_p_cam @ W)
    np.add.at(out.d_log_scales, src, d_log_scales_proj)
    np.add.at(out.d_quaternions, src, d_quats_proj)
    np.add.at(out.d_logit_opacities, src, d_logit_proj)
    np.add.at(out.d_colors, src, d_colors_gated)

    Jtw = point_jacobian_wrt_twist(proj.p_cam)
    out.d_pose_twist = np.einsum("mij,mi->j", Jtw, d_p_cam)
    return out
