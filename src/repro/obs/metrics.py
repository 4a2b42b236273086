"""Metrics registry: counters, gauges, and the ``PipelineStats`` bridge.

One export path for the *algorithmic* view of a run (``PipelineStats``
workload counters, α-check pass rates, warp utilization).  Everything
lands in a :class:`MetricsRegistry` whose :meth:`~MetricsRegistry.export`
is deterministic (sorted keys, plain python scalars), so exported payloads
diff cleanly across runs.

:func:`ingest_pipeline_stats` duck-types its input, so this module imports
nothing from the rest of the package and stays cycle-free.

The process-wide :data:`metrics` registry counts warnings and health
alerts as a run goes; ``repro trace --metrics-out`` writes its export.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = [
    "MetricsRegistry",
    "metrics",
    "ingest_pipeline_stats",
]


class MetricsRegistry:
    """Named counters (monotonic) and gauges (last value)."""

    def __init__(self):
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._warnings: List[str] = []

    # ---- instruments ----

    def inc(self, name: str, value: float = 1) -> float:
        """Add ``value`` to counter ``name``; returns the new total."""
        total = self._counters.get(name, 0) + value
        self._counters[name] = total
        return total

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

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
            "warnings": list(self._warnings),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.export(), f, indent=1, sort_keys=True)


#: Process-wide default registry; the bridge below defaults to it.
metrics = MetricsRegistry()


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
