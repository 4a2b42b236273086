"""High-level SPLATONIC API: sampling + pixel-based rendering in one object.

This is the facade a downstream SLAM system uses.  It owns the sampling
configuration (tile sizes, strategies, ablation switches), draws the pixel
sets, and dispatches rendering to either the sparse pixel-based pipeline or
the dense tile-based pipeline (for the Org./Org.+S baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..render.rasterize import RenderResult, render_full
from .pixel_pipeline import SparseRenderResult, backward_sparse, render_sparse
from .sampling import (
    MAPPING_TILE,
    TRACKING_TILE,
    MappingSamples,
    sample_mapping_pixels,
    sample_tracking_pixels,
)

__all__ = ["SplatonicConfig", "Splatonic"]


@dataclass(frozen=True)
class SplatonicConfig:
    """Knobs of the sparse-processing framework (defaults from Sec. VII-A)."""

    tracking_tile: int = TRACKING_TILE
    mapping_tile: int = MAPPING_TILE
    tracking_strategy: str = "random"
    mapping_unseen: bool = True
    mapping_weighted: bool = True
    mapping_uniform_weights: bool = False
    # Full-frame mapping cadence: the current keyframe is rendered densely
    # on one out of this many mapping invocations.  With mapping invoked
    # every 4 frames (the presets), the default of 1 realizes the paper's
    # "one full-frame mapping for every four frames"; older keyframes in
    # the window always stay sparse.
    full_mapping_every: int = 1
    # Per-item stats record lists (pixel_list_lengths, per_pixel_contribs,
    # pixel_contrib_ids, tile_work).  The hardware-model replay streams need
    # them; long SLAM / benchmark runs turn them off to keep rendering free
    # of unbounded Python-list appends.  Scalar counters are unaffected.
    record_per_pixel: bool = True

    def with_overrides(self, **kwargs) -> "SplatonicConfig":
        return replace(self, **kwargs)


class Splatonic:
    """Sampling + sparse rendering facade.

    Parameters
    ----------
    config:
        A :class:`SplatonicConfig`; defaults reproduce the paper's setup.
    rng:
        Random generator for the samplers (seeded for reproducibility).
    """

    def __init__(self, config: Optional[SplatonicConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        self.config = config or SplatonicConfig()
        self.rng = rng or np.random.default_rng(0)
        self._mapping_counter = 0

    # ---- sampling ----

    def sample_tracking(self, camera: Camera,
                        image: Optional[np.ndarray] = None,
                        loss_map: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw the tracking pixel set for one frame."""
        intr = camera.intrinsics
        return sample_tracking_pixels(
            intr.width, intr.height,
            tile=self.config.tracking_tile,
            strategy=self.config.tracking_strategy,
            rng=self.rng,
            image=image,
            loss_map=loss_map,
        )

    def sample_mapping(self, gamma_final: np.ndarray,
                       image: np.ndarray,
                       weight: Optional[np.ndarray] = None) -> MappingSamples:
        """Draw the mapping pixel sets from the first forward pass' Γ map.

        ``weight`` optionally supplies a precomputed texture-weight map
        (the Sobel magnitude of ``image``) so callers that render the
        same keyframe repeatedly — the mapper's window loop — can reuse
        a memoized map instead of recomputing the filter each time.
        """
        return sample_mapping_pixels(
            gamma_final, image,
            tile=self.config.mapping_tile,
            rng=self.rng,
            include_unseen=self.config.mapping_unseen,
            include_weighted=self.config.mapping_weighted,
            uniform_weights=self.config.mapping_uniform_weights,
            weight=weight,
        )

    def next_mapping_is_full_frame(self) -> bool:
        """True when this mapping invocation should render densely.

        The paper performs one full-frame mapping every
        ``full_mapping_every`` frames to keep global reconstruction
        quality; the counter advances on each call.
        """
        full = (self._mapping_counter % self.config.full_mapping_every) == 0
        self._mapping_counter += 1
        return full

    # ---- rendering ----

    def render_sparse(self, cloud: GaussianCloud, camera: Camera,
                      pixels: np.ndarray,
                      background: Optional[np.ndarray] = None,
                      lattice_tile: Optional[int] = None) -> SparseRenderResult:
        """Pixel-based forward pass over the sampled pixels: projection,
        the compiled candidate cull, falloff and composite, the one path
        every sparse render takes.

        ``lattice_tile`` is accepted and ignored: it used to pick a
        candidate generator, and one generator now serves every pixel
        layout.
        """
        return render_sparse(cloud, camera, pixels, background,
                             record_per_pixel=self.config.record_per_pixel)

    def backward_sparse(self, result: SparseRenderResult,
                        cloud: GaussianCloud, camera: Camera,
                        d_color: np.ndarray, d_depth: np.ndarray,
                        d_silhouette: np.ndarray,
                        pose_only: bool = False):
        """Pixel-based backward pass (reuses the forward caches);
        ``pose_only=True`` computes only the camera-twist gradient."""
        return backward_sparse(result, cloud, camera,
                               d_color, d_depth, d_silhouette,
                               pose_only=pose_only)

    def render_full(self, cloud: GaussianCloud, camera: Camera,
                    background: Optional[np.ndarray] = None,
                    keep_cache: bool = True) -> RenderResult:
        """Dense tile-based forward pass (baseline / full-frame mapping)."""
        return render_full(cloud, camera, background, keep_cache=keep_cache,
                           record_per_pixel=self.config.record_per_pixel)
