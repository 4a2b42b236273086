"""Shared experiment scenarios for the benchmark harness.

Every figure-reproduction bench needs the same expensive artifacts: a
synthetic sequence, a SLAM run over it (to obtain a realistic mid-sequence
map), and measured workload counters for the three pipeline variants.
This module builds them once per process and caches them.

Workloads are measured at proxy resolution and projected to the paper's
deployment point (1200x680 frames, ~1e5 in-frustum Gaussians) via
:meth:`repro.hw.Workload.upscale`; see DESIGN.md for why the scaling
preserves the performance-relevant structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

import numpy as np

from ..core import Splatonic, SplatonicConfig, sample_tracking_pixels
from ..datasets import make_replica_sequence
from ..datasets.rgbd import RGBDSequence
from ..gaussians import Camera, GaussianCloud
from ..hw import Workload, measure_iteration
from ..obs import trace
from ..slam import SLAMSystem
from ..slam.system import SLAMResult

__all__ = ["PAPER_WIDTH", "PAPER_HEIGHT", "PAPER_GAUSSIANS", "ProxyBundle",
           "build_bundle", "tracking_workloads", "mapping_workloads"]

# The paper's deployment point.
PAPER_WIDTH, PAPER_HEIGHT = 1200, 680
# Effective in-frustum Gaussians streamed per iteration at that point.
PAPER_GAUSSIANS = 100_000


@dataclass
class ProxyBundle:
    """Everything the figure benches need about one proxy scenario."""

    sequence: RGBDSequence
    result: SLAMResult
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
def build_bundle(sequence_name: str = "room0", width: int = 96,
                 height: int = 64, n_frames: int = 10,
                 surface_density: float = 12.0,
                 algorithm: str = "splatam", seed: int = 0) -> ProxyBundle:
    """Run a short SLAM to obtain a realistic map + pose for workloads."""
    with trace.span("bench.build_bundle", sequence=sequence_name,
                    width=width, height=height, frames=n_frames):
        sequence = make_replica_sequence(
            sequence_name, n_frames=n_frames, width=width, height=height,
            surface_density=surface_density)
        result = SLAMSystem(algorithm, mode="sparse", seed=seed).run(sequence)
    # Probe a frame the mapper has just covered, so the unseen-pixel set
    # reflects the paper's steady state rather than brand-new territory.
    frame_index = max(4, ((n_frames - 2) // 4) * 4)
    camera = Camera(sequence.intrinsics, result.est_trajectory[frame_index])
    return ProxyBundle(
        sequence=sequence,
        result=result,
        cloud=result.cloud,
        frame_index=frame_index,
        camera=camera,
        width=width,
        height=height,
    )


def tracking_workloads(bundle: ProxyBundle, tile: int = 16,
                       seed: int = 0) -> Dict[str, Workload]:
    """Measure the three tracking-iteration variants and upscale them.

    Keys: ``dense`` (Org.), ``tile_sparse`` (Org.+S), ``pixel``
    (SPLATONIC's pipeline).
    """
    frame = bundle.frame
    rng = np.random.default_rng(seed)
    pixels = sample_tracking_pixels(bundle.width, bundle.height, tile,
                                    "random", rng)
    f_p, f_g = bundle.pixel_factor, bundle.gaussian_factor
    workload_span = trace.span("bench.tracking_workloads", tile=tile)
    workload_span.__enter__()
    out = {}
    out["dense"] = measure_iteration(
        bundle.cloud, bundle.camera, frame.color, frame.depth,
        "tile", name="dense").upscale(f_p, f_g)
    out["tile_sparse"] = measure_iteration(
        bundle.cloud, bundle.camera, frame.color, frame.depth,
        "tile_sparse", pixels, name="org+s").upscale(f_p, f_g)
    out["pixel"] = measure_iteration(
        bundle.cloud, bundle.camera, frame.color, frame.depth,
        "pixel", pixels, name="splatonic").upscale(f_p, f_g)
    workload_span.__exit__(None, None, None)
    return out


def mapping_workloads(bundle: ProxyBundle, tile: int = 4,
                      seed: int = 0) -> Dict[str, Workload]:
    """Measure the mapping-iteration variants (w_m x w_m sampling)."""
    from ..render.rasterize import render_full

    frame = bundle.frame
    splat = Splatonic(SplatonicConfig(mapping_tile=tile),
                      rng=np.random.default_rng(seed))
    first = render_full(bundle.cloud, bundle.camera, np.full(3, 0.05),
                        keep_cache=False)
    samples = splat.sample_mapping(first.final_transmittance, frame.color)
    pixels = samples.all_pixels
    f_p, f_g = bundle.pixel_factor, bundle.gaussian_factor
    workload_span = trace.span("bench.mapping_workloads", tile=tile)
    workload_span.__enter__()
    out = {}
    out["dense"] = measure_iteration(
        bundle.cloud, bundle.camera, frame.color, frame.depth,
        "tile", name="dense-mapping").upscale(f_p, f_g)
    out["tile_sparse"] = measure_iteration(
        bundle.cloud, bundle.camera, frame.color, frame.depth,
        "tile_sparse", pixels, name="org+s-mapping").upscale(f_p, f_g)
    out["pixel"] = measure_iteration(
        bundle.cloud, bundle.camera, frame.color, frame.depth,
        "pixel", pixels, name="splatonic-mapping").upscale(f_p, f_g)
    workload_span.__exit__(None, None, None)
    return out
