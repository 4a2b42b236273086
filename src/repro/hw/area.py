"""Area model of SPLATONIC and the comparison accelerators (Sec. VI).

Per-unit areas are at the 16 nm reference node (the paper synthesizes in
TSMC 16 nm), with :mod:`repro.hw.scaling` available for other nodes.  The
breakdown reproduces the paper's reported composition: rasterization
engines ~28 % of the 1.07 mm^2 total, SRAM ~15 %, the rest dominated by
the enlarged projection units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .scaling import scale_area
from .splatonic_accel import SplatonicHwConfig

__all__ = ["AreaBreakdown", "splatonic_area", "COMPARISON_AREAS_MM2",
           "SRAM_MM2_PER_KB"]

# Dense single-port SRAM at 16 nm, ~0.6 mm^2 per MB.
SRAM_MM2_PER_KB = 0.0006 * 1.9  # compiled macros with periphery overhead

# Per-unit logic areas (mm^2 at 16 nm), chosen to reproduce the paper's
# reported totals and composition.
_PROJECTION_UNIT_MM2 = 0.046      # incl. its 4 alpha-filter LUT datapaths
_SORTING_UNIT_MM2 = 0.028
_RASTER_ENGINE_MM2 = 0.075        # 2x2 render + 2x2 reverse + reduction
_AGGREGATION_LOGIC_MM2 = 0.038    # merge unit + scoreboard control

# Published totals of the comparison designs, scaled to 16 nm (Sec. VI).
COMPARISON_AREAS_MM2 = {
    "splatonic": 1.07,
    "gscore": 1.77,
    "gsarch": 3.42,
}


@dataclass
class AreaBreakdown:
    """Component areas in mm^2 and their composition."""

    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.components.values())

    def share(self, name: str) -> float:
        return self.components.get(name, 0.0) / self.total if self.total else 0.0

    def scaled_to(self, from_nm: int, to_nm: int) -> "AreaBreakdown":
        return AreaBreakdown({
            k: scale_area(v, from_nm, to_nm) for k, v in self.components.items()
        })


def splatonic_area(
        config: SplatonicHwConfig = SplatonicHwConfig()) -> AreaBreakdown:
    """Area of a SPLATONIC instance at 16 nm from its unit counts."""
    sram_kb = (
        config.raster_engines * config.engine_buffer_bytes
        + config.global_buffer_bytes
        + config.aggregation.gaussian_cache_bytes
        + config.aggregation.scoreboard_bytes
    ) / 1024.0
    return AreaBreakdown({
        "projection_units": config.projection_units * _PROJECTION_UNIT_MM2,
        "sorting_units": config.sorting_units * _SORTING_UNIT_MM2,
        "raster_engines": config.raster_engines * _RASTER_ENGINE_MM2,
        "aggregation_logic": _AGGREGATION_LOGIC_MM2,
        "sram": sram_kb * SRAM_MM2_PER_KB,
    })
