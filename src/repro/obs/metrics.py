"""Metrics registry: counters, gauges, histograms, and bridges.

One export path for both views of a run: the *algorithmic* view
(``PipelineStats`` workload counters, α-check pass rates, warp
utilization) and the *modeled-hardware* view (stage latencies, aggregation
cache hit rates, modeled cycles/energy).  Everything lands in a
:class:`MetricsRegistry` whose :meth:`~MetricsRegistry.export` is
deterministic (sorted keys, plain python scalars) so benches can diff
exported payloads (e.g. the ``BENCH_trajectory.json`` artifacts of
``repro bench``) across PRs.

The ``ingest_*`` bridge functions translate the existing result objects —
they duck-type their inputs, so this module imports nothing from the rest
of the package and stays cycle-free.

The process-wide :data:`metrics` registry counts warnings and health
alerts as a run goes; ``repro trace --metrics-out`` writes its export.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "ingest_pipeline_stats",
    "ingest_stage_times",
    "ingest_aggregation_trace",
    "ingest_dram_stats",
]


class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0}
        return {"count": self.count, "sum": self.total, "mean": self.mean,
                "min": self.min, "max": self.max}


class MetricsRegistry:
    """Named counters (monotonic), gauges (last value), and histograms."""

    def __init__(self):
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._warnings: List[str] = []

    # ---- instruments ----

    def inc(self, name: str, value: float = 1) -> float:
        """Add ``value`` to counter ``name``; returns the new total."""
        total = self._counters.get(name, 0) + value
        self._counters[name] = total
        return total

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def warn(self, message: str) -> None:
        """Record a run warning (also logged at WARNING level)."""
        self._warnings.append(str(message))
        from .log import get_logger
        get_logger("metrics").warning(message)

    # ---- access ----

    @property
    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    @property
    def warnings(self) -> List[str]:
        return list(self._warnings)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._warnings.clear()

    # ---- export ----

    @staticmethod
    def _scalar(value: float) -> Any:
        f = float(value)
        return int(f) if f.is_integer() else f

    def export(self) -> Dict[str, Any]:
        """Deterministic, JSON-ready snapshot of everything recorded."""
        return {
            "counters": {k: self._scalar(v)
                         for k, v in sorted(self._counters.items())},
            "gauges": {k: float(v)
                       for k, v in sorted(self._gauges.items())},
            "histograms": {k: h.snapshot()
                           for k, h in sorted(self._histograms.items())},
            "warnings": list(self._warnings),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.export(), f, indent=1, sort_keys=True)


#: Process-wide default registry; the bridges below default to it.
metrics = MetricsRegistry()


# ---------------------------------------------------------------------------
# Bridges from existing result objects (duck-typed, no package imports)
# ---------------------------------------------------------------------------

def ingest_pipeline_stats(stage: str, stats,
                          registry: Optional[MetricsRegistry] = None) -> None:
    """Feed one :class:`~repro.render.stats.PipelineStats` into the registry.

    Raw ``num_*`` workload counters accumulate as counters under
    ``<stage>.<counter>``; the derived rates from ``stats.summary()``
    (α pass rate, warp utilization, per-pixel averages) land as gauges.
    """
    reg = registry or metrics
    for key, value in stats.as_dict().items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if key.startswith("num_"):
                reg.inc(f"{stage}.{key}", value)
    for key, value in stats.summary().items():
        if value is None:
            # Record-gated rates (warp utilization, mean contribs) are
            # n/a when per-pixel records were off; don't fake a gauge.
            continue
        reg.set_gauge(f"{stage}.{key}", value)


def ingest_stage_times(name: str, times,
                       registry: Optional[MetricsRegistry] = None) -> None:
    """Feed a hw-model :class:`~repro.hw.gpu.StageTimes` as gauges."""
    reg = registry or metrics
    for key, value in times.as_dict().items():
        reg.set_gauge(f"{name}.{key}_s", value)
    reg.set_gauge(f"{name}.forward_s", times.forward)
    reg.set_gauge(f"{name}.backward_s", times.backward)
    reg.set_gauge(f"{name}.total_s", times.total)


def ingest_aggregation_trace(name: str, agg_trace,
                             registry: Optional[MetricsRegistry] = None) -> None:
    """Feed an :class:`~repro.hw.aggregation.AggregationTrace` replay."""
    reg = registry or metrics
    reg.inc(f"{name}.tuples", agg_trace.tuples)
    reg.inc(f"{name}.cache_hits", agg_trace.cache_hits)
    reg.inc(f"{name}.cache_misses", agg_trace.cache_misses)
    reg.set_gauge(f"{name}.cycles", agg_trace.cycles)
    reg.set_gauge(f"{name}.stall_cycles", agg_trace.stall_cycles)
    reg.set_gauge(f"{name}.hit_rate", agg_trace.hit_rate)
    reg.set_gauge(f"{name}.cycles_per_tuple", agg_trace.cycles_per_tuple)
    reg.set_gauge(f"{name}.dram_bytes", agg_trace.dram_bytes)


def ingest_dram_stats(name: str, dram_stats,
                      registry: Optional[MetricsRegistry] = None) -> None:
    """Feed a :class:`~repro.hw.dram.DramStats` access tally."""
    reg = registry or metrics
    reg.inc(f"{name}.hits", dram_stats.hits)
    reg.inc(f"{name}.misses", dram_stats.misses)
    reg.set_gauge(f"{name}.hit_rate", dram_stats.hit_rate)
    reg.set_gauge(f"{name}.cycles", dram_stats.cycles)
    reg.set_gauge(f"{name}.energy_pj", dram_stats.energy_pj)
