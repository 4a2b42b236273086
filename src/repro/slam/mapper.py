"""Mapping: scene reconstruction by map optimization (Sec. II-A).

Each mapping invocation, at the current frame:

1. A *first forward pass* renders the full frame once to obtain the final
   transmittance map ``Gamma_final`` (the paper performs this single dense
   pass per mapping; its cost is charged to the mapping workload).
2. **Densification** seeds new Gaussians at unseen pixels (Eqn. 2) by
   back-projecting their measured depth.
3. **Optimization** runs ``mapping_iters`` iterations round-robin over the
   keyframe window, rendering each keyframe's mapping pixel set with the
   pixel-based pipeline (or densely, in the Org. baseline) and stepping
   all Gaussian parameters with Adam.
4. Gaussians whose opacity collapsed are pruned.

The map itself starts from :meth:`Mapper.bootstrap`: seeds on a grid over
frame 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.splatonic import Splatonic
from ..gaussians.camera import Camera, Intrinsics
from ..gaussians.init import seed_from_rgbd
from ..gaussians.model import GaussianCloud
from ..obs import trace
from ..obs.health import get_monitor
from ..render.backward import backward_full
from ..render.stats import PipelineStats
from .config import AlgorithmConfig
from .keyframes import Keyframe
from .losses import rgbd_loss
from .optim import Adam

__all__ = ["MappingResult", "Mapper"]

#: Opacity of every seeded Gaussian: the bootstrap's and densification's.
_SEED_OPACITY = 0.6
#: Pixel stride of the grid that seeds the map from frame 0.
_BOOTSTRAP_STRIDE = 2
#: Gaussians below this opacity after a mapping invocation are pruned.
_PRUNE_OPACITY = 0.05
#: Mapping Adam learning rates per parameter group, the same in every
#: preset.
_LR_MEANS = 3e-3
_LR_LOG_SCALES = 5e-3
_LR_LOGIT_OPACITIES = 5e-2
_LR_COLORS = 2.5e-2


@dataclass
class MappingResult:
    """Outcome of one mapping invocation."""

    cloud: GaussianCloud
    num_seeded: int
    num_pruned: int
    final_loss: float
    forward_stats: PipelineStats = field(default_factory=PipelineStats)
    backward_stats: PipelineStats = field(default_factory=PipelineStats)
    # Sampling composition of the *current* keyframe's pixel set:
    # unseen/weighted/total counts, the unseen-coverage fraction of the
    # first forward pass, and whether this invocation rendered densely.
    sample_info: Dict[str, float] = field(default_factory=dict)
    # Per-iteration loss values; collected only on request (the flight
    # recorder asks for it), None otherwise.
    loss_curve: Optional[List[float]] = None


def _mapping_lr(n: int) -> np.ndarray:
    """Per-parameter learning rates in GaussianCloud.pack() layout."""
    return np.concatenate([
        np.full(3 * n, _LR_MEANS),
        np.full(n, _LR_LOG_SCALES),
        np.full(n, _LR_LOGIT_OPACITIES),
        np.full(3 * n, _LR_COLORS),
    ])


class Mapper:
    """Map optimizer over a keyframe window."""

    def __init__(self, algo: AlgorithmConfig, intrinsics: Intrinsics,
                 splatonic: Optional[Splatonic] = None,
                 mode: str = "sparse",
                 background: Optional[np.ndarray] = None):
        if mode not in ("sparse", "dense"):
            raise ValueError("mode must be 'sparse' or 'dense'")
        if mode == "sparse" and splatonic is None:
            raise ValueError("sparse mapping needs a Splatonic instance")
        self.algo = algo
        self.intrinsics = intrinsics
        self.splatonic = splatonic or Splatonic()
        self.mode = mode
        self.background = (np.zeros(3) if background is None
                           else np.asarray(background, float))

    # ---- seeding ----

    def bootstrap(self, keyframe: Keyframe) -> GaussianCloud:
        """The initial map: seeds on a regular grid over ``keyframe``, one
        pixel in every ``_BOOTSTRAP_STRIDE``."""
        stride = _BOOTSTRAP_STRIDE
        uu, vv = np.meshgrid(np.arange(0, self.intrinsics.width, stride),
                             np.arange(0, self.intrinsics.height, stride))
        pixels = np.stack([uu.ravel(), vv.ravel()], axis=-1)
        camera = Camera(self.intrinsics, keyframe.pose_c2w)
        return seed_from_rgbd(camera, keyframe.color, keyframe.depth, pixels,
                              initial_opacity=_SEED_OPACITY,
                              scale_factor=1.3 * stride)

    def densify(self, cloud: GaussianCloud, keyframe: Keyframe,
                gamma_final: np.ndarray) -> GaussianCloud:
        """Seed new Gaussians at unseen pixels (Eqn. 2)."""
        from ..core.sampling import unseen_mask

        vs, us = np.nonzero(unseen_mask(gamma_final))
        if us.size == 0:
            return cloud
        pixels = np.stack([us, vs], axis=-1)
        camera = Camera(self.intrinsics, keyframe.pose_c2w)
        seeds = seed_from_rgbd(camera, keyframe.color, keyframe.depth,
                               pixels,
                               initial_opacity=_SEED_OPACITY,
                               scale_factor=1.3)
        if len(seeds) == 0:
            return cloud
        return cloud.extend(seeds)

    # ---- optimization ----

    def map_frame(self, cloud: GaussianCloud, current: Keyframe,
                  window: List[Keyframe],
                  collect_curve: bool = False) -> MappingResult:
        """Run one full mapping invocation at ``current``.

        ``collect_curve=True`` additionally records the per-iteration
        loss values (for the flight recorder).
        """
        from ..core.sampling import unseen_mask

        record = self.splatonic.config.record_per_pixel
        fwd_stats = PipelineStats(pipeline=self.mode, record_per_pixel=record)
        bwd_stats = PipelineStats(pipeline=self.mode, record_per_pixel=record)

        # First forward pass (dense, once per mapping): Gamma_final map.
        camera = Camera(self.intrinsics, current.pose_c2w)
        with trace.span("mapping_fwd", kind="first_pass",
                        frame=current.index):
            first = self.splatonic.render_full(cloud, camera, self.background,
                                               keep_cache=False)
        fwd_stats.merge(first.stats)
        gamma_final = first.final_transmittance

        before = len(cloud)
        with trace.span("mapping.densify", frame=current.index):
            cloud = self.densify(cloud, current, gamma_final)
        num_seeded = len(cloud) - before

        # Mapping pixel sets, one per keyframe, drawn once per invocation.
        # Every `full_mapping_every`-th invocation renders the current
        # keyframe densely ("one full-frame mapping for every four
        # frames", Sec. VII-A).
        full_frame = (self.mode == "sparse"
                      and self.splatonic.next_mapping_is_full_frame())
        height, width = gamma_final.shape
        sample_info: Dict[str, float] = {
            "unseen": 0, "weighted": 0, "total": int(height * width),
            "unseen_coverage": float(unseen_mask(gamma_final).mean()),
            "full_frame": bool(full_frame or self.mode == "dense"),
        }
        # Per-keyframe loop invariants, gathered once per invocation: the
        # pixel set (None renders the whole frame through the dense tile
        # pipeline) and the reference color/depth at those pixels (the
        # set is fixed for the whole iteration loop).
        kf_pixels = []
        kf_refs = []
        for kf in window:
            if self.mode == "dense" or (kf.index == current.index
                                        and full_frame):
                kf_pixels.append(None)
                kf_refs.append((kf.color, kf.depth))
                continue
            if kf.index == current.index:
                samples = self.splatonic.sample_mapping(
                    gamma_final, current.color,
                    weight=current.texture_weight())
                sample_info.update(samples.counts())
            else:
                # Older keyframes: no fresh Gamma map; use the
                # texture-weighted lattice only.  The Sobel weight is
                # memoized on the keyframe (colors never change), so
                # repeat invocations skip the filter recompute.
                samples = self.splatonic.sample_mapping(
                    np.zeros_like(gamma_final), kf.color,
                    weight=kf.texture_weight())
            px = np.reshape(samples.all_pixels, (-1, 2))
            kf_pixels.append(px)
            kf_refs.append((kf.color[px[:, 1], px[:, 0]],
                            kf.depth[px[:, 1], px[:, 0]]))

        n = len(cloud)
        adam = Adam(8 * n, _mapping_lr(n))
        loss_value = 0.0
        curve: Optional[List[float]] = [] if collect_curve else None
        for it in range(self.algo.mapping_iters):
            kf_i = it % len(window)
            kf = window[kf_i]
            cam = Camera(self.intrinsics, kf.pose_c2w)
            px = kf_pixels[kf_i]
            if px is not None and px.shape[0] == 0:
                continue
            # Dense vs sparse picks only the render and the backward
            # pass; the loss takes the full frame or the pixels alike.
            with trace.span("mapping_fwd", iteration=it, keyframe=kf.index):
                if px is None:
                    result = self.splatonic.render_full(
                        cloud, cam, self.background)
                else:
                    result = self.splatonic.render_sparse(
                        cloud, cam, px, self.background)
                ref_c, ref_d = kf_refs[kf_i]
                out = rgbd_loss(result.color, result.depth,
                                result.silhouette, ref_c, ref_d,
                                self.algo.mapping_loss, tracking=False)
            backward = (backward_full if px is None
                        else self.splatonic.backward_sparse)
            with trace.span("mapping_bwd", iteration=it, keyframe=kf.index):
                grads = backward(result, cloud, cam,
                                 out.d_color, out.d_depth, out.d_silhouette)
            fwd_stats.merge(result.stats)
            bwd_stats.merge(grads.stats)
            loss_value = out.loss
            if curve is not None:
                curve.append(float(loss_value))

            # Finite guard (always on): a poisoned gradient would be
            # baked into every Gaussian parameter by the update below —
            # alert through the health monitors and stop optimizing.
            grad_vector = grads.as_cloud_vector()
            if not (np.isfinite(loss_value)
                    and np.all(np.isfinite(grad_vector))):
                get_monitor().non_finite("mapping loss/gradient",
                                         iteration=it,
                                         loss=float(loss_value))
                break
            step = adam.step(grad_vector)
            cloud = cloud.unpack(cloud.pack() + step)

        # Prune collapsed Gaussians.
        keep = cloud.opacities >= _PRUNE_OPACITY
        num_pruned = int((~keep).sum())
        if num_pruned:
            cloud = cloud.prune(keep)

        return MappingResult(
            cloud=cloud,
            num_seeded=num_seeded,
            num_pruned=num_pruned,
            final_loss=loss_value,
            forward_stats=fwd_stats,
            backward_stats=bwd_stats,
            sample_info=sample_info,
            loss_curve=curve,
        )
