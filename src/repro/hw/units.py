"""Shared accelerator building blocks: unit configs and the report type.

All three modeled accelerators (SPLATONIC, GSArch, GauSPU) are described
by unit counts and per-cycle throughputs, clocked at 500 MHz against
4-channel LPDDR3-1600 DRAM, matching the paper's experimental setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["AccelReport", "ACCEL_CLOCK_HZ", "DRAM_BYTES_PER_CYCLE",
           "QUANT_PARAM_BYTES", "PAIR_RECORD_BYTES"]

ACCEL_CLOCK_HZ = 500e6
# 4 channels of LPDDR3-1600: ~25.6 GB/s => bytes per 500 MHz cycle.
DRAM_BYTES_PER_CYCLE = 25.6e9 / ACCEL_CLOCK_HZ
# Accelerators stream quantized Gaussian parameter records.
QUANT_PARAM_BYTES = 32
# A projected pair record (id, depth key, alpha, color) in on-chip format.
PAIR_RECORD_BYTES = 16


@dataclass
class AccelReport:
    """Latency/energy of one training iteration on an accelerator."""

    name: str
    forward_s: float
    backward_s: float
    energy_j: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s

    def speedup_over(self, other_total_s: float) -> float:
        """Speedup of this design versus a reference latency."""
        if self.total_s <= 0:
            return float("inf")
        return other_total_s / self.total_s
