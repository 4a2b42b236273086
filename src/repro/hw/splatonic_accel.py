"""The SPLATONIC pipelined accelerator model (Sec. V, Fig. 15).

Structure (defaults from Sec. VI):

- **8 projection units**, each with **4 α-filter units** — per-pixel
  projection with preemptive α-checking via a 64-entry exp LUT and direct
  bbox indexing into the sampled-pixel lattice.
- **4 hierarchical sorting units** — per-pixel depth sorts of the short
  surviving lists.
- **4 rasterization engines**, each 2x2 render units + 2x2 reverse render
  units around a color-reduction unit and an 8 KB Γ/C double buffer: the
  forward pass stores each pixel's per-Gaussian transmittance and prefix
  color so the reverse units need no cross-PE reduction.
- **1 aggregation unit** (4 channels, 32 KB Gaussian cache, 8 KB
  scoreboard) — replayed cycle-approximately by
  :class:`repro.hw.aggregation.AggregationUnit`.

Stages are double-buffered and stream through a 64 KB global buffer, so a
pass's latency is the maximum stage load (plus DRAM roofline), not the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..render.stats import PipelineStats
from .aggregation import AggregationConfig, AggregationUnit
from .energy import ACCEL_OPS, EnergyLedger, OpEnergies
from .pipeline import CycleBreakdown, StageLoad, pipelined_cycles
from .sorting_unit import HierarchicalSorter, SortingUnitConfig
from .units import (
    ACCEL_CLOCK_HZ,
    DRAM_BYTES_PER_CYCLE,
    PAIR_RECORD_BYTES,
    QUANT_PARAM_BYTES,
    AccelReport,
)
from .workload import Workload

__all__ = ["SplatonicHwConfig", "SplatonicAccelerator", "StageModel"]

# Fixed-function op counts (FMA equivalents) per work item.
PROJ_FLOPS = 60
ALPHA_FLOPS = 6
RENDER_FLOPS = 14
REVERSE_FLOPS = 30
PIPELINE_FILL_CYCLES = 256


@dataclass(frozen=True)
class SplatonicHwConfig:
    """Unit counts and buffer sizes (Sec. VI defaults)."""

    name: str = "splatonic-hw"
    projection_units: int = 8
    alpha_filters_per_unit: int = 4
    sorting_units: int = 4
    raster_engines: int = 4
    render_units_per_engine: int = 4
    reverse_units_per_engine: int = 4
    engine_buffer_bytes: int = 8 * 1024
    global_buffer_bytes: int = 64 * 1024
    aggregation: AggregationConfig = AggregationConfig()
    clock_hz: float = ACCEL_CLOCK_HZ
    node_nm: int = 8          # scaled to match the Orin SoC
    # Ablation switches.
    preemptive_alpha: bool = True
    gamma_cache: bool = True      # Γ/C double buffer in the engines
    scoreboard_aggregation: bool = True
    direct_bbox_indexing: bool = True

    def with_overrides(self, **kwargs) -> "SplatonicHwConfig":
        return replace(self, **kwargs)

    @property
    def alpha_checks_per_cycle(self) -> int:
        return self.projection_units * self.alpha_filters_per_unit

    @property
    def render_pairs_per_cycle(self) -> int:
        return self.raster_engines * self.render_units_per_engine

    @property
    def reverse_pairs_per_cycle(self) -> int:
        return self.raster_engines * self.reverse_units_per_engine


@dataclass(frozen=True)
class StageModel:
    """Per-stage busy cycles + off-chip traffic of one pass pair.

    The breakdowns are *pre-roofline*: they carry each stage's busy
    cycles (total = slowest stage + fill latency); the DRAM byte counts
    are applied as a separate bandwidth roofline by
    :meth:`SplatonicAccelerator.iteration_report`.  Cycle-attribution
    reports consume this directly so their bottleneck tables agree with
    :attr:`repro.hw.pipeline.CycleBreakdown.bottleneck` by construction.
    """

    forward: "CycleBreakdown"
    backward: "CycleBreakdown"
    forward_dram_bytes: float
    backward_dram_bytes: float


class SplatonicAccelerator:
    """Latency/energy model of SPLATONIC-HW for pixel-pipeline workloads."""

    def __init__(self, config: SplatonicHwConfig = SplatonicHwConfig(),
                 ops: OpEnergies = ACCEL_OPS):
        self.config = config
        self.ops = ops.scaled_to(config.node_nm)
        self._agg_unit = AggregationUnit(config.aggregation)
        self._sorter = HierarchicalSorter(SortingUnitConfig(),
                                          units=config.sorting_units)

    # ---- stage cycle counts ----

    def _projection_cycles(self, fwd: PipelineStats) -> float:
        cfg = self.config
        transform = fwd.num_projected / cfg.projection_units
        checks = fwd.num_alpha_checks
        if not cfg.direct_bbox_indexing:
            # Without direct indexing every Gaussian scans the whole
            # sampled-pixel list for bbox hits.
            checks += fwd.num_projected * max(fwd.num_pixels, 1) * 0.25
        alpha = checks / cfg.alpha_checks_per_cycle
        if not cfg.preemptive_alpha:
            alpha = 0.0  # alpha-checking deferred to the render units
        return max(transform, alpha)

    def _sorting_cycles(self, fwd: PipelineStats) -> float:
        if not self.config.preemptive_alpha:
            # The sorter orders the full candidate set, not the survivors.
            return fwd.num_candidate_pairs / self.config.sorting_units
        if fwd.pixel_list_lengths:
            return self._sorter.total_cycles(fwd.pixel_list_lengths)
        return fwd.num_sort_keys / self.config.sorting_units

    def _raster_cycles(self, fwd: PipelineStats) -> float:
        pairs = fwd.num_contrib_pairs
        cycles = pairs / self.config.render_pairs_per_cycle
        if not self.config.preemptive_alpha:
            # Without preemption every bbox candidate reaches the render
            # units, which must alpha-check it and idle on the rejected
            # ones (the GSCore/MetaSapiens under-utilization the paper
            # removes).
            cand = fwd.num_candidate_pairs
            cycles = cand / self.config.render_pairs_per_cycle
            cycles += cand / self.config.alpha_checks_per_cycle
        return cycles

    def _reverse_cycles(self, bwd: PipelineStats) -> float:
        pairs = bwd.num_contrib_pairs
        cycles = pairs / self.config.reverse_pairs_per_cycle
        if not self.config.gamma_cache:
            # Without the Gamma/C double buffer the transmittance prefix
            # is a serial dependency chain per pixel: each engine walks
            # its pixel's list one pair per cycle before the parallel
            # gradient computation can start.
            cycles += pairs / max(self.config.raster_engines, 1)
        return cycles

    # ---- public API ----

    def stage_model(self, workload: Workload) -> StageModel:
        """Per-stage busy-cycle breakdowns + DRAM bytes of one iteration."""
        if workload.pipeline != "pixel":
            raise ValueError(
                "SPLATONIC executes the pixel-based pipeline; measure the "
                "workload with mode='pixel'")
        fwd, bwd = workload.fwd, workload.bwd
        cfg = self.config

        proj = self._projection_cycles(fwd)
        sort = self._sorting_cycles(fwd)
        raster = self._raster_cycles(fwd)
        agg_cycles, agg_dram = self._agg_unit.scaled_cost(
            bwd, self.config.scoreboard_aggregation)
        reverse = self._reverse_cycles(bwd)
        reproj = bwd.num_projected / cfg.projection_units

        # DRAM rooflines per pass.  SPLATONIC is a streaming pipeline:
        # pixel-Gaussian pair records are produced by the projection units
        # and consumed by the sorters / rasterization engines through the
        # on-chip global buffer, and the Γ/C engine buffers let the
        # reverse pass run per pixel right behind the forward pass — so
        # pair records never touch DRAM.  Off-chip traffic is the
        # quantized parameter stream in, the sampled reference pixels,
        # the aggregation unit's spills, and the parameter updates out.
        fwd_dram = (fwd.num_projected * QUANT_PARAM_BYTES
                    + fwd.num_pixels * 16)
        bwd_dram = agg_dram + bwd.num_projected * QUANT_PARAM_BYTES

        fwd_break = pipelined_cycles([
            StageLoad("projection", proj),
            StageLoad("sorting", sort),
            StageLoad("rasterization", raster),
        ], fill_latency=PIPELINE_FILL_CYCLES)
        bwd_break = pipelined_cycles([
            StageLoad("reverse_rasterization", reverse),
            StageLoad("aggregation", agg_cycles),
            StageLoad("reprojection", reproj),
        ], fill_latency=PIPELINE_FILL_CYCLES)
        return StageModel(forward=fwd_break, backward=bwd_break,
                          forward_dram_bytes=fwd_dram,
                          backward_dram_bytes=bwd_dram)

    def iteration_report(self, workload: Workload) -> AccelReport:
        """Latency/energy of one average training iteration."""
        model = self.stage_model(workload)
        it = max(workload.iterations, 1)
        cfg = self.config
        fwd_break, bwd_break = model.forward, model.backward
        fwd_dram, bwd_dram = (model.forward_dram_bytes,
                              model.backward_dram_bytes)

        fwd_cycles = max(fwd_break.total, fwd_dram / DRAM_BYTES_PER_CYCLE)
        bwd_cycles = max(bwd_break.total, bwd_dram / DRAM_BYTES_PER_CYCLE)
        forward_s = fwd_cycles / cfg.clock_hz / it
        backward_s = bwd_cycles / cfg.clock_hz / it

        energy = self._energy(workload, fwd_cycles + bwd_cycles,
                              fwd_dram + bwd_dram) / it

        stage_seconds = {
            name: cycles / cfg.clock_hz / it
            for name, cycles in {**fwd_break.stages, **bwd_break.stages}.items()
        }
        return AccelReport(
            name=cfg.name,
            forward_s=forward_s,
            backward_s=backward_s,
            energy_j=energy,
            stage_seconds=stage_seconds,
            notes={
                "fwd_dram_bytes": fwd_dram / it,
                "bwd_dram_bytes": bwd_dram / it,
                "aggregation_cycles": bwd_break.stages["aggregation"] / it,
            },
        )

    def _energy(self, workload: Workload, total_cycles: float,
                dram_bytes: float) -> float:
        fwd, bwd = workload.fwd, workload.bwd
        ledger = EnergyLedger(self.ops)
        flops = fwd.num_projected * PROJ_FLOPS
        flops += fwd.num_candidate_pairs * ALPHA_FLOPS
        flops += fwd.num_contrib_pairs * RENDER_FLOPS
        flops += bwd.num_contrib_pairs * REVERSE_FLOPS
        flops += bwd.num_projected * PROJ_FLOPS
        ledger.add("flop", flops)
        ledger.add("special", fwd.num_alpha_checks)  # LUT lookups
        # On-chip traffic: pair records through the global buffer, Γ/C
        # through the engine double buffers.
        sram = (fwd.num_sort_keys + bwd.num_candidate_pairs) * PAIR_RECORD_BYTES
        sram += (fwd.num_contrib_pairs + bwd.num_contrib_pairs) * 8
        ledger.add("sram_byte", sram)
        ledger.add("dram_byte", dram_bytes)
        ledger.add("background_per_cycle", total_cycles)
        return ledger.total_joules()
