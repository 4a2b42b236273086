"""GauSPU baseline model (Wu et al., MICRO'24).

GauSPU is a 3DGS-SLAM co-processor: **projection and sorting stay on the
GPU**, while rasterization, reverse rasterization, and gradient handling
run on a dedicated tile-granularity engine.  Two structural properties
drive its behaviour in Fig. 22:

- the GPU-resident front-end keeps the GPU powered and bounds energy
  savings (the paper measures only 23.6x even with sampling);
- the tile-granularity PE array under-utilizes on sparse pixels, like all
  tile-based designs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..render.stats import PipelineStats
from .aggregation import AggregationConfig, AggregationUnit
from .energy import ACCEL_OPS, GPU_OPS, EnergyLedger, OpEnergies
from .gpu import GpuModel, GpuSpec
from .pipeline import StageLoad, pipelined_cycles
from .units import (
    ACCEL_CLOCK_HZ,
    DRAM_BYTES_PER_CYCLE,
    PAIR_RECORD_BYTES,
    QUANT_PARAM_BYTES,
    AccelReport,
)
from .workload import Workload

__all__ = ["GauSpuConfig", "GauSpuAccelerator"]

RENDER_FLOPS = 20
REVERSE_FLOPS = 40
PIPELINE_FILL_CYCLES = 256


@dataclass(frozen=True)
class GauSpuConfig:
    """GauSPU processing-unit parameters (approximated from the paper)."""

    name: str = "gauspu"
    tile_lane_pixels: int = 64        # pixels co-processed per tile round
    render_engines: int = 2
    reverse_engines: int = 2
    aggregation: AggregationConfig = AggregationConfig(
        channels=4, gaussian_cache_bytes=32 * 1024,
        scoreboard_bytes=8 * 1024)
    # Handoff of projection/sorting outputs GPU -> accelerator.
    sync_overhead_s: float = 50e-6
    clock_hz: float = ACCEL_CLOCK_HZ
    node_nm: int = 8

    def with_overrides(self, **kwargs) -> "GauSpuConfig":
        return replace(self, **kwargs)


class GauSpuAccelerator:
    """Latency/energy model of GauSPU for tile-pipeline workloads."""

    def __init__(self, config: GauSpuConfig = GauSpuConfig(),
                 gpu: GpuModel = None, ops: OpEnergies = ACCEL_OPS):
        self.config = config
        self.gpu = gpu or GpuModel(GpuSpec())
        self.ops = ops.scaled_to(config.node_nm)
        self._agg_unit = AggregationUnit(config.aggregation)

    def _tile_rounds(self, stats: PipelineStats) -> float:
        lanes = self.config.tile_lane_pixels
        rounds = 0.0
        for _list_len, n_px, serial_len in stats.tile_work:
            rounds += serial_len * max(1, -(-n_px // lanes))
        return rounds

    def iteration_report(self, workload: Workload) -> AccelReport:
        if workload.pipeline != "tile":
            raise ValueError(
                "GauSPU executes the tile-based pipeline; measure the "
                "workload with mode='tile' or 'tile_sparse'")
        it = max(workload.iterations, 1)
        fwd, bwd = workload.fwd, workload.bwd
        cfg = self.config

        # Front-end on the GPU.
        gpu_proj_s = self.gpu.projection_time(fwd)
        gpu_sort_s = self.gpu.sorting_time(fwd)
        gpu_front_s = gpu_proj_s + gpu_sort_s + cfg.sync_overhead_s

        raster = self._tile_rounds(fwd) / cfg.render_engines
        reverse = self._tile_rounds(bwd) * 1.5 / cfg.reverse_engines
        agg_cycles, agg_dram = self._agg_unit.scaled_cost(bwd)
        # Re-projection returns to the GPU.
        gpu_reproj_s = self.gpu.reprojection_time(bwd)

        fwd_dram = fwd.num_tile_pairs * PAIR_RECORD_BYTES
        bwd_dram = (bwd.num_tile_pairs * PAIR_RECORD_BYTES + agg_dram
                    + bwd.num_projected * QUANT_PARAM_BYTES)

        fwd_break = pipelined_cycles(
            [StageLoad("rasterization", raster)],
            fill_latency=PIPELINE_FILL_CYCLES)
        bwd_break = pipelined_cycles([
            StageLoad("reverse_rasterization", reverse),
            StageLoad("aggregation", agg_cycles),
        ], fill_latency=PIPELINE_FILL_CYCLES)

        fwd_cycles = max(fwd_break.total, fwd_dram / DRAM_BYTES_PER_CYCLE)
        bwd_cycles = max(bwd_break.total, bwd_dram / DRAM_BYTES_PER_CYCLE)
        forward_s = gpu_front_s / it + fwd_cycles / cfg.clock_hz / it
        backward_s = (bwd_cycles / cfg.clock_hz + gpu_reproj_s) / it

        energy = self._energy(workload, fwd_cycles + bwd_cycles,
                              fwd_dram + bwd_dram,
                              gpu_front_s + gpu_reproj_s) / it
        stage_seconds = {
            "gpu_projection": gpu_proj_s / it,
            "gpu_sorting": gpu_sort_s / it,
            "gpu_reprojection": gpu_reproj_s / it,
        }
        stage_seconds.update({
            name: cycles / cfg.clock_hz / it
            for name, cycles in {**fwd_break.stages, **bwd_break.stages}.items()
        })
        return AccelReport(
            name=cfg.name,
            forward_s=forward_s,
            backward_s=backward_s,
            energy_j=energy,
            stage_seconds=stage_seconds,
        )

    def _energy(self, workload: Workload, accel_cycles: float,
                accel_dram: float, gpu_seconds: float) -> float:
        fwd, bwd = workload.fwd, workload.bwd
        # Accelerator back-end.
        ledger = EnergyLedger(self.ops)
        flops = self._tile_rounds(fwd) * self.config.tile_lane_pixels * 2
        flops += fwd.num_contrib_pairs * RENDER_FLOPS
        flops += bwd.num_contrib_pairs * REVERSE_FLOPS
        ledger.add("flop", flops)
        ledger.add("special", fwd.num_alpha_checks + bwd.num_alpha_checks)
        ledger.add("sram_byte",
                   (fwd.num_tile_pairs + bwd.num_tile_pairs) * PAIR_RECORD_BYTES)
        ledger.add("dram_byte", accel_dram)
        ledger.add("background_per_cycle", accel_cycles)
        accel_j = ledger.total_joules()

        # GPU front-end: compute ops plus idle-GPU burn while it owns the
        # projection/sorting stages.
        gpu_ledger = EnergyLedger(GPU_OPS)
        gpu_ledger.add("flop", fwd.num_projected * 120
                       + fwd.num_sort_keys * 24
                       + bwd.num_projected * 80)
        gpu_ledger.add("dram_byte", fwd.num_projected * 64)
        gpu_cycles = gpu_seconds * self.gpu.spec.clock_hz
        gpu_ledger.add("background_per_cycle", gpu_cycles)
        return accel_j + gpu_ledger.total_joules()
