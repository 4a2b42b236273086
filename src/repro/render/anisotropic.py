"""Anisotropic 3DGS rendering through the pixel-based pipeline.

The SLAM engine uses isotropic Gaussians (SplaTAM's choice), but the
original 3DGS representation is anisotropic: a full 3D covariance
``Sigma = R(q) diag(s^2) R(q)^T`` splatted through the EWA approximation
``Sigma_2D = J W Sigma W^T J^T`` (J the perspective Jacobian, W the
world-to-camera rotation).  This module implements that representation
for the *pixel-based* (sparse) pipeline — SPLATONIC's rendering paradigm —
with full analytic gradients for every parameter:

- means, per-axis log-scales, quaternions, opacity logits, colors;
- the camera twist (translation components exact; the rotational path
  through ``W`` in the covariance projection is omitted, the standard
  3DGS-SLAM approximation — see :func:`backward_sparse_anisotropic`).

It runs on the render engine's sparse stages
(:mod:`repro.render.kernels.vectorized`): candidates, depth order,
composite, the reverse pass up to dL/dα and the aggregation scatter are
the isotropic pipelines' own.  Only the falloff differs — the conic
``½ dᵀ C d`` instead of ``d² / 2σ²`` — in the α stage and in its gradient
block.  The per-pixel loop it replaced is the test oracle
``tests/aniso_oracle.py``.

Forward outputs are close to the isotropic pipeline's whenever all three
scales coincide and ``blur=0`` (a property-test target).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.covariance import build_covariance, covariance_gradients
from ..gaussians.model import inverse_sigmoid, sigmoid
from ..gaussians.se3 import point_jacobian_wrt_twist
from .backward import scatter_add
from .compositing import ALPHA_MAX, ALPHA_THRESHOLD, T_MIN
from .kernels import vectorized
from .kernels.candidates import CandidatePairs, candidate_pairs
from .projection import RADIUS_SIGMA
from .stats import PipelineStats

__all__ = [
    "AnisotropicCloud",
    "ProjectedAnisotropic",
    "AnisoSparseResult",
    "AnisoGradients",
    "project_anisotropic",
    "render_sparse_anisotropic",
    "backward_sparse_anisotropic",
]


@dataclass
class AnisotropicCloud:
    """Struct-of-arrays container for full-covariance 3D Gaussians."""

    means: np.ndarray            # (N, 3)
    log_scales: np.ndarray       # (N, 3) per-axis
    quaternions: np.ndarray      # (N, 4) (w, x, y, z); normalized on use
    logit_opacities: np.ndarray  # (N,)
    colors: np.ndarray           # (N, 3)

    def __post_init__(self) -> None:
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.log_scales = np.atleast_2d(
            np.asarray(self.log_scales, dtype=float))
        self.quaternions = np.atleast_2d(
            np.asarray(self.quaternions, dtype=float))
        self.logit_opacities = np.atleast_1d(
            np.asarray(self.logit_opacities, dtype=float))
        self.colors = np.atleast_2d(np.asarray(self.colors, dtype=float))
        n = self.means.shape[0]
        if self.means.shape != (n, 3):
            raise ValueError("means must be (N, 3)")
        if self.log_scales.shape != (n, 3):
            raise ValueError("log_scales must be (N, 3)")
        if self.quaternions.shape != (n, 4):
            raise ValueError("quaternions must be (N, 4)")
        if self.logit_opacities.shape != (n,):
            raise ValueError("logit_opacities must be (N,)")
        if self.colors.shape != (n, 3):
            raise ValueError("colors must be (N, 3)")

    def __len__(self) -> int:
        return self.means.shape[0]

    @classmethod
    def create(cls, means, scales, quaternions, opacities,
               colors) -> "AnisotropicCloud":
        scales = np.atleast_2d(np.asarray(scales, dtype=float))
        return cls(
            means=means,
            log_scales=np.log(np.maximum(scales, 1e-8)),
            quaternions=quaternions,
            logit_opacities=inverse_sigmoid(opacities),
            colors=colors,
        )

    @classmethod
    def from_isotropic(cls, cloud) -> "AnisotropicCloud":
        """Lift an isotropic :class:`~repro.gaussians.GaussianCloud`."""
        n = len(cloud)
        quats = np.zeros((n, 4))
        quats[:, 0] = 1.0
        return cls(
            means=cloud.means.copy(),
            log_scales=np.repeat(cloud.log_scales[:, None], 3, axis=1),
            quaternions=quats,
            logit_opacities=cloud.logit_opacities.copy(),
            colors=cloud.colors.copy(),
        )

    @property
    def scales(self) -> np.ndarray:
        return np.exp(self.log_scales)

    @property
    def opacities(self) -> np.ndarray:
        return sigmoid(self.logit_opacities)

    def pack(self) -> np.ndarray:
        """Flatten parameters: means, log_scales, quats, logits, colors."""
        return np.concatenate([
            self.means.ravel(), self.log_scales.ravel(),
            self.quaternions.ravel(), self.logit_opacities,
            self.colors.ravel(),
        ])

    def unpack(self, vector: np.ndarray) -> "AnisotropicCloud":
        n = len(self)
        vector = np.asarray(vector, dtype=float)
        expected = 14 * n
        if vector.shape != (expected,):
            raise ValueError(
                f"parameter vector has {vector.shape}, expected ({expected},)")
        o = 0
        means = vector[o:o + 3 * n].reshape(n, 3); o += 3 * n
        log_scales = vector[o:o + 3 * n].reshape(n, 3); o += 3 * n
        quats = vector[o:o + 4 * n].reshape(n, 4); o += 4 * n
        logits = vector[o:o + n]; o += n
        colors = vector[o:].reshape(n, 3)
        return AnisotropicCloud(means, log_scales, quats, logits, colors)


@dataclass
class ProjectedAnisotropic:
    """Per-view splat parameters of the surviving Gaussians."""

    source_index: np.ndarray  # (M,)
    p_cam: np.ndarray         # (M, 3)
    mean2d: np.ndarray        # (M, 2)
    conic: np.ndarray         # (M, 3): (a, b, c) of [[a, b], [b, c]]
    cov2d: np.ndarray         # (M, 2, 2)
    T: np.ndarray             # (M, 2, 3): J @ W (EWA projection operator)
    sigma3d: np.ndarray       # (M, 3, 3)
    depth: np.ndarray         # (M,)
    opacity: np.ndarray       # (M,)
    color: np.ndarray         # (M, 3)
    radius: np.ndarray        # (M,) bbox half-extent

    def __len__(self) -> int:
        return self.source_index.shape[0]


def _perspective_jacobian(intr, p_cam: np.ndarray) -> np.ndarray:
    """``(M, 2, 3)`` Jacobians of (u, v) w.r.t. camera-frame (x, y, z)."""
    x, y, z = p_cam[:, 0], p_cam[:, 1], p_cam[:, 2]
    J = np.zeros((p_cam.shape[0], 2, 3))
    J[:, 0, 0] = intr.fx / z
    J[:, 0, 2] = -intr.fx * x / (z * z)
    J[:, 1, 1] = intr.fy / z
    J[:, 1, 2] = -intr.fy * y / (z * z)
    return J


def project_anisotropic(cloud: AnisotropicCloud, camera: Camera,
                        near: float = 0.01, far: float = 1e6,
                        blur: float = 0.0) -> ProjectedAnisotropic:
    """EWA-project an anisotropic cloud and cull off-screen splats.

    ``blur`` adds a screen-space dilation ``blur * I`` to the 2D
    covariance (the reference 3DGS uses 0.3; 0 keeps the projection exact,
    which the isotropic-equivalence tests rely on).
    """
    intr = camera.intrinsics
    w2c = camera.pose_w2c
    W = w2c[:3, :3]
    p_cam = cloud.means @ W.T + w2c[:3, 3]
    z = p_cam[:, 2]
    in_depth = (z > near) & (z < far)
    z_safe = np.where(in_depth, z, 1.0)
    p_safe = p_cam.copy()
    p_safe[:, 2] = z_safe

    u = intr.fx * p_safe[:, 0] / z_safe + intr.cx
    v = intr.fy * p_safe[:, 1] / z_safe + intr.cy

    sigma3d = build_covariance(cloud.quaternions, cloud.scales)
    J = _perspective_jacobian(intr, p_safe)
    T = np.einsum("mij,jk->mik", J, W)
    cov2d = np.einsum("mij,mjk,mlk->mil", T, sigma3d, T)
    cov2d[:, 0, 0] += blur
    cov2d[:, 1, 1] += blur

    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    det = np.maximum(a * c - b * b, 1e-12)
    conic = np.stack([c / det, -b / det, a / det], axis=-1)
    mid = 0.5 * (a + c)
    lam_max = mid + np.sqrt(np.maximum(mid * mid - det, 0.0))
    radius = RADIUS_SIGMA * np.sqrt(np.maximum(lam_max, 1e-12))

    on_screen = ((u + radius > 0.0) & (u - radius < intr.width)
                 & (v + radius > 0.0) & (v - radius < intr.height))
    keep = in_depth & on_screen
    idx = np.nonzero(keep)[0]
    return ProjectedAnisotropic(
        source_index=idx,
        p_cam=p_cam[idx],
        mean2d=np.stack([u[idx], v[idx]], axis=-1),
        conic=conic[idx],
        cov2d=cov2d[idx],
        T=T[idx],
        sigma3d=sigma3d[idx],
        depth=z[idx],
        opacity=cloud.opacities[idx],
        color=np.clip(cloud.colors[idx], 0.0, 1.0),
        radius=radius[idx],
    )


@dataclass
class AnisoSparseResult:
    """Sparse forward outputs plus the cache the backward pass needs."""

    pixels: np.ndarray
    color: np.ndarray
    depth: np.ndarray
    silhouette: np.ndarray
    proj: ProjectedAnisotropic
    # The engine's flat composite cache; None when no pixel has a pair.
    flat_cache: Optional[vectorized.FlatCompositeCache]
    stats: PipelineStats = field(default_factory=PipelineStats)

    @property
    def final_transmittance(self) -> np.ndarray:
        return 1.0 - self.silhouette


def _conic_power(proj: ProjectedAnisotropic, gss: np.ndarray,
                 centres: np.ndarray):
    """``(du, dv, power)`` per flat pair, ``power = ½ dᵀ C d`` — the conic
    falloff exponent, the one stage where anisotropic splats differ from
    the isotropic ``d² / 2σ²``."""
    du = centres[:, 0] - proj.mean2d[gss, 0]
    dv = centres[:, 1] - proj.mean2d[gss, 1]
    a, b, c = proj.conic[gss].T
    return du, dv, 0.5 * (a * du * du + 2.0 * b * du * dv + c * dv * dv)


def render_sparse_anisotropic(
    cloud: AnisotropicCloud,
    camera: Camera,
    pixels: np.ndarray,
    background: Optional[np.ndarray] = None,
    alpha_threshold: float = ALPHA_THRESHOLD,
    t_min: float = T_MIN,
    blur: float = 0.0,
) -> AnisoSparseResult:
    """Pixel-based forward pass over ``pixels`` with anisotropic splats.

    The render engine's sparse stages with the conic falloff in the α
    stage: candidates from the ``mean2d ± radius`` corners in composite
    order, one conic α per candidate with the preemptive α-check, then
    the vectorized kernel's composite; the workload counters are those of
    :func:`repro.core.pixel_pipeline.render_sparse`.  ``pixels`` is
    ``(K, 2)`` integer ``(u, v)``; a pixel outside the image raises
    ``ValueError``.
    """
    intr = camera.intrinsics
    bg = np.zeros(3) if background is None else np.asarray(background, float)
    pixels = np.asarray(pixels, dtype=int).reshape(-1, 2)
    intr.check_pixels(pixels)
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
    if len(proj) == 0 or K == 0:
        stats.per_pixel_contribs = [0] * K
        return AnisoSparseResult(pixels, color, depth, silhouette, proj,
                                 None, stats)

    centres = pixels + 0.5
    r = proj.radius[:, None]
    pairs = candidate_pairs(
        centres, np.concatenate([proj.mean2d - r, proj.mean2d + r], axis=1),
        proj.depth)
    stats.num_candidate_pairs += pairs.size
    stats.num_alpha_checks += pairs.size
    _, _, power = _conic_power(proj, pairs.gss, centres[pairs.pix])
    alpha_raw = proj.opacity[pairs.gss] * np.exp(-power)
    alpha = np.minimum(alpha_raw, ALPHA_MAX)
    keep = alpha >= alpha_threshold
    pairs = CandidatePairs(pairs.pix[keep], pairs.gss[keep], K)
    stats.num_sort_keys += pairs.size
    _, _, _, flat_cache = vectorized.forward(
        proj, pairs, centres, bg, alpha_threshold, t_min, True, np.exp,
        stats, color, depth, silhouette, pair_alpha=alpha[keep],
        pair_clipped=alpha_raw[keep] > ALPHA_MAX)
    return AnisoSparseResult(pixels, color, depth, silhouette, proj,
                             flat_cache, stats)


@dataclass
class AnisoGradients:
    """World-space gradients of an anisotropic cloud and the camera."""

    d_means: np.ndarray            # (N, 3)
    d_log_scales: np.ndarray       # (N, 3)
    d_quaternions: np.ndarray      # (N, 4)
    d_logit_opacities: np.ndarray  # (N,)
    d_colors: np.ndarray           # (N, 3)
    d_pose_twist: np.ndarray       # (6,) — see module docstring
    stats: PipelineStats = field(default_factory=PipelineStats)

    def as_cloud_vector(self) -> np.ndarray:
        return np.concatenate([
            self.d_means.ravel(), self.d_log_scales.ravel(),
            self.d_quaternions.ravel(), self.d_logit_opacities,
            self.d_colors.ravel(),
        ])


def backward_sparse_anisotropic(
    result: AnisoSparseResult,
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
    fc = result.flat_cache
    if fc is None:
        summed = np.zeros((M, 10))
    else:
        a = vectorized.alpha_gradients(fc, proj, d_color, d_depth_in, d_sil)
        gss = a.idx
        du, dv, power = _conic_power(proj, gss, fc.centres[a.rows])
        g = np.exp(-power)
        ca, cb, cc = proj.conic[gss].T
        coeff = a.d_alpha * a.opacity * g
        # α = o exp(-power); d power / d mean2d = -(C d).  One in-order
        # scatter of the 10 per-pair columns: opacity, mean2d (2), conic
        # (3), color (3), depth.
        summed = scatter_add(gss, [
            a.d_alpha * g,
            coeff * (ca * du + cb * dv),
            coeff * (cb * du + cc * dv),
            -coeff * 0.5 * du * du,
            -coeff * du * dv,
            -coeff * 0.5 * dv * dv,
            *a.d_color,
            a.d_depth,
        ], M)
        touched = a.touched
        total_touched = int(touched.sum())
        stats.num_contrib_pairs += total_touched
        stats.num_atomic_adds += total_touched
        nonzero = fc.lengths > 0
        stats.pixel_list_lengths.extend(int(m) for m in fc.lengths[nonzero])
        ids = proj.source_index[gss[a.contrib_flat]]
        stats.pixel_contrib_ids.extend(
            np.split(ids, np.cumsum(touched[nonzero])[:-1]))
    d_opacity, d_u, d_v = summed[:, 0], summed[:, 1], summed[:, 2]
    d_conic, d_colors_proj, d_depth_proj = (summed[:, 3:6], summed[:, 6:9],
                                            summed[:, 9])

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

    src = proj.source_index
    Jtw = point_jacobian_wrt_twist(proj.p_cam)
    return AnisoGradients(
        d_means=scatter_add(src, d_p_cam @ W, n),
        d_log_scales=scatter_add(src, d_log_scales_proj, n),
        d_quaternions=scatter_add(src, d_quats_proj, n),
        d_logit_opacities=scatter_add(src, d_logit_proj, n),
        d_colors=scatter_add(src, d_colors_gated, n),
        d_pose_twist=np.einsum("mij,mi->j", Jtw, d_p_cam),
        stats=stats,
    )
