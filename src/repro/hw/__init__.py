"""Hardware models: the mobile GPU, SPLATONIC, and baseline accelerators.

Every model consumes :class:`~repro.hw.workload.Workload` counters produced
by the renderers — the same counters a profiler would collect — and returns
latency and energy.  Absolute values are model estimates; all paper-facing
results are ratios against the GPU baseline.
"""

from .aggregation import AggregationConfig, AggregationTrace, AggregationUnit
from .area import (
    COMPARISON_AREAS_MM2,
    AreaBreakdown,
    splatonic_area,
)
from .dram import DramConfig, DramModel, DramStats
from .energy import ACCEL_OPS, DRAM_PJ_PER_BYTE, GPU_OPS, EnergyLedger, OpEnergies
from .gauspu import GauSpuAccelerator, GauSpuConfig
from .gpu import GpuModel, GpuSpec, StageTimes
from .gsarch import GsArchAccelerator, GsArchConfig
from .lut import ExpLUT
from .pipeline import CycleBreakdown, StageLoad, pipelined_cycles, sequential_cycles
from .scaling import NODES, scale_area, scale_delay, scale_energy
from .sorting_unit import HierarchicalSorter, SortingUnitConfig
from .splatonic_accel import (SplatonicAccelerator, SplatonicHwConfig,
                              StageModel)
from .units import AccelReport
from .workload import Workload, measure_iteration

__all__ = [
    "AggregationConfig",
    "AggregationTrace",
    "AggregationUnit",
    "AreaBreakdown",
    "splatonic_area",
    "COMPARISON_AREAS_MM2",
    "DramConfig",
    "DramModel",
    "DramStats",
    "ACCEL_OPS",
    "GPU_OPS",
    "DRAM_PJ_PER_BYTE",
    "EnergyLedger",
    "OpEnergies",
    "GpuModel",
    "GpuSpec",
    "StageTimes",
    "GauSpuAccelerator",
    "GauSpuConfig",
    "GsArchAccelerator",
    "GsArchConfig",
    "ExpLUT",
    "CycleBreakdown",
    "StageLoad",
    "pipelined_cycles",
    "sequential_cycles",
    "NODES",
    "HierarchicalSorter",
    "SortingUnitConfig",
    "scale_area",
    "scale_delay",
    "scale_energy",
    "SplatonicAccelerator",
    "StageModel",
    "SplatonicHwConfig",
    "AccelReport",
    "Workload",
    "measure_iteration",
]
