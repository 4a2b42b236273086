"""GSArch baseline model (He et al., HPCA'25, edge configuration).

GSArch is a 3DGS *training* accelerator built around the conventional
tile-based pipeline with sub-tile (4x4) rendering granularity and
memory-efficient on-chip gradient merging.  Its structural weakness under
sparse pixel sampling — the property Fig. 22/25 exercise — is that a
sub-tile's 16 lanes process a Gaussian together, so with one sampled pixel
per sub-tile 15 of 16 lanes idle, and sparsely scattered samples touch
many sub-tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..render.stats import PipelineStats
from .aggregation import AggregationConfig, AggregationUnit
from .energy import ACCEL_OPS, EnergyLedger, OpEnergies
from .pipeline import StageLoad, pipelined_cycles
from .units import (
    ACCEL_CLOCK_HZ,
    DRAM_BYTES_PER_CYCLE,
    PAIR_RECORD_BYTES,
    QUANT_PARAM_BYTES,
    AccelReport,
)
from .workload import Workload

__all__ = ["GsArchConfig", "GsArchAccelerator"]

PROJ_FLOPS = 60
RENDER_FLOPS = 20      # includes per-pair alpha-checking in the PE
REVERSE_FLOPS = 40
PIPELINE_FILL_CYCLES = 256


@dataclass(frozen=True)
class GsArchConfig:
    """GSArch edge configuration (approximated from the paper)."""

    name: str = "gsarch"
    projection_units: int = 8
    sorting_units: int = 4
    subtile_pixels: int = 16          # 4x4 rendering granularity
    render_engines: int = 8           # sub-tile rounds retired per cycle
    reverse_engines: int = 8
    # Gradient merging: a large on-chip accumulation buffer.
    aggregation: AggregationConfig = AggregationConfig(
        channels=16, gaussian_cache_bytes=64 * 1024,
        scoreboard_bytes=16 * 1024)
    clock_hz: float = ACCEL_CLOCK_HZ
    node_nm: int = 8

    def with_overrides(self, **kwargs) -> "GsArchConfig":
        return replace(self, **kwargs)


class GsArchAccelerator:
    """Latency/energy model of GSArch for tile-pipeline workloads."""

    def __init__(self, config: GsArchConfig = GsArchConfig(),
                 ops: OpEnergies = ACCEL_OPS):
        self.config = config
        self.ops = ops.scaled_to(config.node_nm)
        self._agg_unit = AggregationUnit(config.aggregation)

    def _subtile_rounds(self, stats: PipelineStats) -> float:
        """Sub-tile x Gaussian rounds of a (possibly sparse) tile raster.

        One-per-``w x w`` sampling lattices place each sampled pixel in its
        own sub-tile (for w >= 4), so a tile with ``n_px`` rendered pixels
        activates ``min(n_px, subtiles_per_tile)`` sub-tile rounds per
        Gaussian in its list.
        """
        sub = self.config.subtile_pixels
        rounds = 0.0
        for _list_len, n_px, serial_len in stats.tile_work:
            tile_px = stats.tile_size * stats.tile_size
            subtiles = max(1, tile_px // sub)
            active = min(n_px, subtiles) if n_px < tile_px else subtiles
            rounds += serial_len * active
        return rounds

    def iteration_report(self, workload: Workload) -> AccelReport:
        if workload.pipeline != "tile":
            raise ValueError(
                "GSArch executes the tile-based pipeline; measure the "
                "workload with mode='tile' or 'tile_sparse'")
        it = max(workload.iterations, 1)
        fwd, bwd = workload.fwd, workload.bwd
        cfg = self.config

        proj = (fwd.num_projected / cfg.projection_units
                + fwd.num_tile_pairs / cfg.projection_units)
        sort = fwd.num_sort_keys / cfg.sorting_units
        raster = self._subtile_rounds(fwd) / cfg.render_engines
        reverse = self._subtile_rounds(bwd) * 1.5 / cfg.reverse_engines
        agg_cycles, agg_dram = self._agg_unit.scaled_cost(bwd)
        reproj = bwd.num_projected / cfg.projection_units

        fwd_dram = (fwd.num_projected * QUANT_PARAM_BYTES
                    + fwd.num_tile_pairs * PAIR_RECORD_BYTES)
        bwd_dram = (bwd.num_tile_pairs * PAIR_RECORD_BYTES if bwd.tile_work
                    else 0.0)
        bwd_dram += agg_dram + bwd.num_projected * QUANT_PARAM_BYTES

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

        fwd_cycles = max(fwd_break.total, fwd_dram / DRAM_BYTES_PER_CYCLE)
        bwd_cycles = max(bwd_break.total, bwd_dram / DRAM_BYTES_PER_CYCLE)

        energy = self._energy(workload, fwd_cycles + bwd_cycles,
                              fwd_dram + bwd_dram) / it
        stage_seconds = {
            name: cycles / cfg.clock_hz / it
            for name, cycles in {**fwd_break.stages, **bwd_break.stages}.items()
        }
        return AccelReport(
            name=cfg.name,
            forward_s=fwd_cycles / cfg.clock_hz / it,
            backward_s=bwd_cycles / cfg.clock_hz / it,
            energy_j=energy,
            stage_seconds=stage_seconds,
        )

    def _energy(self, workload: Workload, total_cycles: float,
                dram_bytes: float) -> float:
        fwd, bwd = workload.fwd, workload.bwd
        ledger = EnergyLedger(self.ops)
        flops = fwd.num_projected * PROJ_FLOPS
        # Sub-tile lanes burn energy even when masked; charge issued slots.
        flops += self._subtile_rounds(fwd) * self.config.subtile_pixels * 2
        flops += fwd.num_candidate_pairs * 4
        flops += fwd.num_contrib_pairs * RENDER_FLOPS
        flops += bwd.num_contrib_pairs * REVERSE_FLOPS
        flops += bwd.num_projected * PROJ_FLOPS
        ledger.add("flop", flops)
        ledger.add("special", fwd.num_alpha_checks + bwd.num_alpha_checks)
        sram = (fwd.num_tile_pairs + bwd.num_tile_pairs) * PAIR_RECORD_BYTES
        sram += (fwd.num_contrib_pairs + bwd.num_contrib_pairs) * 8
        ledger.add("sram_byte", sram)
        ledger.add("dram_byte", dram_bytes)
        ledger.add("background_per_cycle", total_cycles * 1.6)  # larger die
        return ledger.total_joules()
