"""Shared experiment scenarios for the benchmark harness.

Every figure-reproduction bench needs the same expensive artifacts: a
synthetic sequence, a mid-sequence map built by the mapper at the
ground-truth poses (no tracker runs, so a tracking change moves none of
them), and measured workload counters for the three pipeline variants.
This module builds them once per process and caches them.

Workloads are measured at proxy resolution and projected to the paper's
deployment point (1200x680 frames, ~1e5 in-frustum Gaussians) via
:meth:`repro.hw.Workload.upscale`; see DESIGN.md for why the scaling
preserves the performance-relevant structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..core import Splatonic, SplatonicConfig, sample_tracking_pixels
from ..datasets import make_replica_sequence
from ..datasets.rgbd import RGBDSequence
from ..gaussians import Camera, GaussianCloud
from ..hw import Workload, measure_iteration
from ..obs import trace
from ..slam import KeyframeBuffer, Mapper, SLAMSystem

__all__ = ["PAPER_WIDTH", "PAPER_HEIGHT", "PAPER_GAUSSIANS", "ProxyBundle",
           "proxy_sequence", "build_bundle", "measure_variant",
           "tracking_pixels", "mapping_pixels", "tracking_workloads",
           "mapping_workloads"]

# The paper's deployment point.
PAPER_WIDTH, PAPER_HEIGHT = 1200, 680
# Effective in-frustum Gaussians streamed per iteration at that point.
PAPER_GAUSSIANS = 100_000


@dataclass
class ProxyBundle:
    """Everything the figure benches need about one proxy scenario."""

    sequence: RGBDSequence
    cloud: GaussianCloud
    frame_index: int
    camera: Camera
    width: int
    height: int

    @property
    def frame(self):
        return self.sequence[self.frame_index]

    @property
    def pixel_factor(self) -> float:
        return (PAPER_WIDTH * PAPER_HEIGHT) / (self.width * self.height)

    @property
    def gaussian_factor(self) -> float:
        return PAPER_GAUSSIANS / max(len(self.cloud), 1)


@lru_cache(maxsize=4)
def proxy_sequence(sequence_name: str, width: int, height: int,
                   n_frames: int, surface_density: float = 12.0):
    """The synthetic sequence of one proxy scenario."""
    return make_replica_sequence(
        sequence_name, n_frames=n_frames, width=width, height=height,
        surface_density=surface_density)


@lru_cache(maxsize=4)
def build_bundle(sequence_name: str = "room0", width: int = 96,
                 height: int = 64, n_frames: int = 10,
                 surface_density: float = 12.0,
                 algorithm: str = "splatam", seed: int = 0) -> ProxyBundle:
    """The map after frames ``0..frame_index``, mapped at their true poses
    through :meth:`SLAMSystem.map_step`, the schedule
    :meth:`SLAMSystem.run` maps on, and the probe camera at the true pose
    of ``frame_index``."""
    # Probe a frame the mapper has just covered, so the unseen-pixel set
    # reflects the paper's steady state rather than brand-new territory.
    frame_index = max(4, ((n_frames - 2) // 4) * 4)
    with trace.span("bench.build_bundle", sequence=sequence_name,
                    width=width, height=height, frames=frame_index + 1):
        sequence = proxy_sequence(sequence_name, width, height, n_frames,
                                  surface_density)
        system = SLAMSystem(algorithm, mode="sparse", seed=seed)
        algo, intr = system.algo, sequence.intrinsics
        mapper = Mapper(algo, intr, system.splatonic, system.mode,
                        system.background)
        keyframes = KeyframeBuffer(algo.keyframe_every, algo.keyframe_window)
        cloud = None
        for i in range(frame_index + 1):
            frame = sequence[i]
            _, _, mapping = system.map_step(mapper, keyframes, cloud, i,
                                            frame.gt_pose_c2w, frame,
                                            collect_curve=False)
            if mapping is not None:
                cloud = mapping.cloud
    camera = Camera(intr, sequence.gt_trajectory[frame_index])
    return ProxyBundle(sequence, cloud, frame_index, camera, width, height)


#: Pipeline variants: workload key -> (render mode, workload name):
#: ``dense`` (Org.), ``tile_sparse`` (Org.+S) and ``pixel`` (SPLATONIC's
#: pipeline).
_VARIANTS: Dict[str, Tuple[str, str]] = {
    "dense": ("tile", "dense"),
    "tile_sparse": ("tile_sparse", "org+s"),
    "pixel": ("pixel", "splatonic"),
}


def measure_variant(bundle: ProxyBundle, pixels: np.ndarray, key: str,
                    suffix: str = "") -> Workload:
    """Measure one iteration of variant ``key`` on ``pixels`` and upscale
    it to the paper's deployment point."""
    mode, name = _VARIANTS[key]
    frame = bundle.frame
    return measure_iteration(
        bundle.cloud, bundle.camera, frame.color, frame.depth, mode, pixels,
        name=name + suffix).upscale(bundle.pixel_factor,
                                    bundle.gaussian_factor)


def tracking_pixels(bundle: ProxyBundle, tile: int = 16,
                    seed: int = 0) -> np.ndarray:
    """The tracking iteration's sampled pixels (one per ``tile`` block)."""
    return sample_tracking_pixels(bundle.width, bundle.height, tile,
                                  "random", np.random.default_rng(seed))


def mapping_pixels(bundle: ProxyBundle, tile: int = 4,
                   seed: int = 0) -> np.ndarray:
    """The mapping iteration's sampled pixels (w_m x w_m sampling)."""
    from ..render.rasterize import render_full

    splat = Splatonic(SplatonicConfig(mapping_tile=tile),
                      rng=np.random.default_rng(seed))
    first = render_full(bundle.cloud, bundle.camera, np.full(3, 0.05),
                        keep_cache=False)
    return splat.sample_mapping(first.final_transmittance,
                                bundle.frame.color).all_pixels


def tracking_workloads(bundle: ProxyBundle, tile: int = 16,
                       seed: int = 0) -> Dict[str, Workload]:
    """Measure the three tracking-iteration variants and upscale them."""
    pixels = tracking_pixels(bundle, tile, seed)
    with trace.span("bench.tracking_workloads", tile=tile):
        return {key: measure_variant(bundle, pixels, key)
                for key in _VARIANTS}


def mapping_workloads(bundle: ProxyBundle, tile: int = 4,
                      seed: int = 0) -> Dict[str, Workload]:
    """Measure the mapping-iteration variants (w_m x w_m sampling)."""
    pixels = mapping_pixels(bundle, tile, seed)
    with trace.span("bench.mapping_workloads", tile=tile):
        return {key: measure_variant(bundle, pixels, key, "-mapping")
                for key in _VARIANTS}
