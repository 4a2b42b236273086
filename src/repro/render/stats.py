"""Workload counters collected by both rendering pipelines.

The hardware models (``repro.hw``) are driven entirely by these counters —
they play the role of the kernel instrumentation the paper gathered on the
Orin GPU.  Every forward/backward invocation of either pipeline fills in a
:class:`PipelineStats`; the GPU and accelerator models then translate the
counters into cycles and energy.

Counter glossary
----------------
``num_gaussians``           total Gaussians in the scene
``num_projected``           Gaussians surviving frustum culling
``num_pixels``              pixels actually rendered (sparse: the samples)
``num_tile_pairs``          tile-Gaussian intersection entries (tile pipeline)
``num_candidate_pairs``     pixel-Gaussian pairs submitted to α-checking
``num_contrib_pairs``       pairs that pass α-checking and get integrated
``num_sort_keys``           keys pushed through the depth sorter
``num_alpha_checks``        evaluations of exp() for α (== candidate pairs
                            in forward; the backward pass of the tile
                            pipeline repeats them)
``per_pixel_contribs``      list with the contributing-Gaussian count of
                            every rendered pixel (drives warp-utilization
                            and aggregation-contention models)
``num_atomic_adds``         gradient accumulations into shared Gaussian
                            state (backward only)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

__all__ = ["PipelineStats"]


@dataclass
class PipelineStats:
    """Workload counters for a single forward (and optional backward) pass."""

    pipeline: str = "tile"  # "tile" or "pixel"
    tile_size: int = 16
    image_width: int = 0
    image_height: int = 0

    num_gaussians: int = 0
    num_projected: int = 0
    num_pixels: int = 0
    num_tile_pairs: int = 0
    num_candidate_pairs: int = 0
    num_contrib_pairs: int = 0
    num_sort_keys: int = 0
    num_alpha_checks: int = 0
    num_atomic_adds: int = 0
    per_pixel_contribs: List[int] = field(default_factory=list)
    # Tile pipeline only: per-rasterized-tile (list_length, rendered_pixels)
    # records.  The GPU model derives warp-round counts from these: a warp
    # iterates the whole tile list regardless of how many of its lanes'
    # pixels were actually sampled (the Org.+S inefficiency).
    tile_work: List[tuple] = field(default_factory=list)
    # Pixel pipeline only: per-pixel surviving-candidate list lengths.
    pixel_list_lengths: List[int] = field(default_factory=list)
    # Backward passes only: per-pixel contributing-Gaussian ID lists (cloud
    # indices), replayed by the aggregation-unit simulator.  Kept at proxy
    # resolution even in upscaled workloads — consumers normalize by
    # ``num_atomic_adds``.
    pixel_contrib_ids: List[np.ndarray] = field(default_factory=list)
    # Opt-out switch for the per-item record lists above (replay streams
    # for the hardware models).  With ``record_per_pixel=False`` the
    # pipelines skip the per-pixel/per-tile appends entirely — the scalar
    # counters are unaffected, and ``merge()``/``summary()``/flight-record
    # consumers keep working on the (empty) lists.  Not a counter: it is
    # excluded from ``as_dict()``.
    record_per_pixel: bool = True

    def merge(self, other: "PipelineStats") -> "PipelineStats":
        """Accumulate another pass's counters into this one (in place)."""
        # Frame geometry is a property of the run, not an accumulator;
        # carry it so stage-level aggregates don't export 0x0 frames.
        self.image_width = max(self.image_width, other.image_width)
        self.image_height = max(self.image_height, other.image_height)
        self.num_gaussians = max(self.num_gaussians, other.num_gaussians)
        self.num_projected += other.num_projected
        self.num_pixels += other.num_pixels
        self.num_tile_pairs += other.num_tile_pairs
        self.num_candidate_pairs += other.num_candidate_pairs
        self.num_contrib_pairs += other.num_contrib_pairs
        self.num_sort_keys += other.num_sort_keys
        self.num_alpha_checks += other.num_alpha_checks
        self.num_atomic_adds += other.num_atomic_adds
        self.per_pixel_contribs.extend(other.per_pixel_contribs)
        self.tile_work.extend(other.tile_work)
        self.pixel_list_lengths.extend(other.pixel_list_lengths)
        self.pixel_contrib_ids.extend(other.pixel_contrib_ids)
        # A merge that absorbs a records-off pass no longer has complete
        # per-pixel lists; summary() must report n/a, not fabricate rates.
        self.record_per_pixel = (self.record_per_pixel
                                 and other.record_per_pixel)
        return self

    def as_dict(self) -> Dict[str, Union[int, str]]:
        """Scalar counters + pipeline identification, JSON-ready.

        The per-item record lists (``per_pixel_contribs``, ``tile_work``,
        ...) are deliberately excluded: they are replay streams for the
        hardware models, not serializable headline numbers.
        """
        return {
            "pipeline": self.pipeline,
            "tile_size": int(self.tile_size),
            "image_width": int(self.image_width),
            "image_height": int(self.image_height),
            "num_gaussians": int(self.num_gaussians),
            "num_projected": int(self.num_projected),
            "num_pixels": int(self.num_pixels),
            "num_tile_pairs": int(self.num_tile_pairs),
            "num_candidate_pairs": int(self.num_candidate_pairs),
            "num_contrib_pairs": int(self.num_contrib_pairs),
            "num_sort_keys": int(self.num_sort_keys),
            "num_alpha_checks": int(self.num_alpha_checks),
            "num_atomic_adds": int(self.num_atomic_adds),
        }

    def headline(self) -> Dict[str, int]:
        """Just the scalar ``num_*`` workload counters.

        The per-frame payload of the flight recorder: small, integer,
        and deterministic — the per-frame analogue of the stage-level
        counters in ``BENCH_trajectory.json``.
        """
        return {key: value for key, value in self.as_dict().items()
                if key.startswith("num_")}

    def summary(self) -> Dict[str, Optional[float]]:
        """Derived per-pass rates (the quantities the figures report).

        ``mean_contribs_per_pixel`` and ``warp_utilization`` are computed
        from the per-pixel record lists; with ``record_per_pixel=False``
        those lists are empty and the naive values (0.0 / 1.0) would be
        fabrications — both keys are reported as ``None`` ("n/a") then.
        """
        pixels = max(self.num_pixels, 1)
        record = self.record_per_pixel
        return {
            "alpha_pass_rate": float(self.alpha_pass_rate),
            "mean_contribs_per_pixel": (
                float(self.mean_contribs_per_pixel) if record else None),
            "warp_utilization": (
                float(self.warp_utilization()) if record else None),
            "candidate_pairs_per_pixel": self.num_candidate_pairs / pixels,
            "sort_keys_per_pixel": self.num_sort_keys / pixels,
            "atomic_adds_per_pixel": self.num_atomic_adds / pixels,
        }

    @property
    def mean_contribs_per_pixel(self) -> float:
        if not self.per_pixel_contribs:
            return 0.0
        return float(np.mean(self.per_pixel_contribs))

    @property
    def alpha_pass_rate(self) -> float:
        """Fraction of α-checked pairs that actually contribute."""
        if self.num_candidate_pairs == 0:
            return 0.0
        return self.num_contrib_pairs / self.num_candidate_pairs

    def warp_utilization(self, warp_size: int = 32) -> float:
        """Thread utilization of pixel-parallel rasterization (Fig. 7 model).

        In the tile-based pipeline one thread renders one pixel, and the
        warp broadcasts each Gaussian of the tile list to all lanes; a lane
        is active only when its pixel integrates the broadcast Gaussian.
        Utilization is therefore (work done) / (work slots occupied): for
        each warp of pixels the slots per broadcast round equal
        ``warp_size * max_lane_work`` while the useful work is the summed
        per-lane contribution counts.
        """
        contribs = np.asarray(self.per_pixel_contribs, dtype=float)
        if contribs.size == 0:
            return 1.0
        pad = (-contribs.size) % warp_size
        if pad:
            contribs = np.concatenate([contribs, np.zeros(pad)])
        warps = contribs.reshape(-1, warp_size)
        useful = warps.sum()
        occupied = (warps.max(axis=1) * warp_size).sum()
        if occupied == 0:
            return 1.0
        return float(useful / occupied)
