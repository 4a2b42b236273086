"""Live telemetry: the run observer that makes a SLAM run watchable while
it executes.

:class:`RunAggregator` attaches to :meth:`repro.slam.SLAMSystem.run`'s
event stream (header, one record per frame, summary), next to the flight
recorder and the health monitor.  It folds the stream into one live run
snapshot — the ``/runz`` document the HTTP exporter in
:mod:`repro.obs.promexport` serves — and sets the ``slam.*`` gauges
``/metrics`` exposes.  The run's events themselves live in one file, the
flight record (:mod:`repro.obs.flight`): the recorder writes and flushes
each record as the run emits it, so ``tail -f run.jsonl`` follows a run
as it happens.

Two events arrive outside the run stream, and the caller hands them over
through ``consume(kind, payload)``: the health alert that aborts a run
(``"alert"``) and the run-registry registration (``"registry"``, the
``/runz`` ``registry`` key).

Design rules, in order of importance:

- **Never block the run.**  The aggregator's per-event work is a few
  dict updates under a lock.
- **Passive.**  Observing changes nothing the run computes; an
  unobserved run builds no record at all.
- **Stdlib-only.**  Module-level imports reach only the stdlib-only
  :mod:`repro.obs.metrics`, so the module imports without cycles.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .metrics import MetricsRegistry, metrics as default_metrics

__all__ = [
    "DEFAULT_PORT",
    "TelemetryConfig",
    "RunAggregator",
]

#: Default port of the ``repro slam --serve-telemetry`` HTTP exporter.
DEFAULT_PORT = 9464

#: The event kinds :meth:`repro.slam.SLAMSystem.run` emits.
RUN_EVENT_KINDS = ("header", "frame", "summary")


@dataclass(frozen=True)
class TelemetryConfig:
    """Settings of the live-telemetry HTTP exporter: its bind address and
    the length of the bounded per-frame series the run aggregator keeps
    for sparklines."""

    #: Bind host of the ``/metrics``–``/healthz``–``/runz`` exporter.
    host: str = "127.0.0.1"
    #: Bind port of the exporter (0 picks an ephemeral port).
    port: int = DEFAULT_PORT
    #: Bounded length of the aggregator's per-frame series tails.
    series_len: int = 120

    def __post_init__(self) -> None:
        if self.series_len <= 0:
            raise ValueError("series_len must be positive")


# ---------------------------------------------------------------------------
# Run aggregation: run events -> a live run snapshot
# ---------------------------------------------------------------------------

def _get(record: Dict[str, Any], dotted: str) -> Any:
    current: Any = record
    for part in dotted.split("."):
        if not isinstance(current, dict) or part not in current:
            return None
        current = current[part]
    return current


class RunAggregator:
    """Folds run events into one live run snapshot.

    A run observer: the HTTP exporter serves :meth:`snapshot` as
    ``/runz`` from its request threads while the run feeds the
    aggregator, so ingestion and snapshots share one lock.  It keeps
    bounded per-frame series (ring of the most recent ``series_len``
    values) so a multi-thousand-frame run aggregates in constant memory.
    Replaying a flight record's header, frames and summary through
    :meth:`consume` rebuilds the same snapshot.
    """

    #: (snapshot key, dotted frame-record path) series the aggregator
    #: keeps a bounded tail of.
    SERIES = (
        ("pose_error_m", "pose_error_m"),
        ("tracking_loss", "tracking.final_loss"),
        ("mapping_loss", "mapping.final_loss"),
        ("gaussians", "gaussians"),
        ("alpha_rejection", "alpha.rejection_rate"),
        ("cache_hit_rate", "cache.hit_rate"),
        ("wall_time_s", "wall_time_s"),
    )

    def __init__(self, series_len: int = 120, alerts_len: int = 16,
                 gauges: Optional[MetricsRegistry] = None):
        self.series_len = int(series_len)
        #: Registry the ``slam.*`` gauges land in (the process default
        #: unless given).
        self.gauges = gauges if gauges is not None else default_metrics
        #: Run events (header/frame/summary) received so far.
        self.run_events = 0
        self.header: Dict[str, Any] = {}
        self.summary: Optional[Dict[str, Any]] = None
        self.registry: Optional[Dict[str, Any]] = None
        self.frame: Optional[int] = None
        self.frames_seen = 0
        self.last_frame: Optional[Dict[str, Any]] = None
        self.series: Dict[str, deque] = {
            key: deque(maxlen=self.series_len) for key, _ in self.SERIES}
        self.alerts: deque = deque(maxlen=int(alerts_len))
        self.alert_count = 0
        self._pose_sq_sum = 0.0
        self._pose_count = 0
        self._first_ts: Optional[float] = None
        self._last_ts: Optional[float] = None
        self._lock = threading.Lock()

    # ---- run-event observer (see SLAMSystem.run) ----

    def on_header(self, header: Dict[str, Any]) -> None:
        self.consume("header", header, ts=time.time())

    def on_frame(self, record: Dict[str, Any], stages) -> None:
        """Fold the frame record, then set the ``slam.*`` gauges it
        carries."""
        self.consume("frame", record, ts=time.time())
        for name, value in (("frame", record["frame"]),
                            ("gaussians", record["gaussians"]),
                            ("pose_error_m", record["pose_error_m"]),
                            ("cache_hit_rate", record["cache"]["hit_rate"])):
            self.gauges.set_gauge(f"slam.{name}", float(value))

    def on_summary(self, summary: Dict[str, Any]) -> None:
        self.consume("summary", summary, ts=time.time())

    # ---- ingestion ----

    def consume(self, kind: str, payload: Dict[str, Any],
                ts: Optional[float] = None) -> None:
        with self._lock:
            if kind in RUN_EVENT_KINDS:
                self.run_events += 1
            if kind == "header":
                self.header = dict(payload)
            elif kind == "frame":
                self._consume_frame(payload, ts)
            elif kind == "summary":
                self.summary = dict(payload)
            elif kind == "alert":
                self.alerts.append(dict(payload))
                self.alert_count += 1
            elif kind == "registry":
                self.registry = dict(payload)
            # Unknown kinds are ignored, not errors: the aggregator only
            # models the run stream.

    def _consume_frame(self, record: Dict[str, Any],
                       ts: Optional[float]) -> None:
        self.frames_seen += 1
        self.last_frame = record
        frame = record.get("frame")
        if frame is not None:
            self.frame = int(frame)
        for key, dotted in self.SERIES:
            value = _get(record, dotted)
            if value is not None:
                self.series[key].append(float(value))
        err = record.get("pose_error_m")
        if err is not None:
            self._pose_sq_sum += float(err) ** 2
            self._pose_count += 1
        for alert in record.get("alerts") or []:
            # A run's alerts arrive inside their frame record, live and
            # in a flight replay alike.
            self.alerts.append(dict(alert))
            self.alert_count += 1
        if ts is not None:
            if self._first_ts is None:
                self._first_ts = ts
            self._last_ts = ts

    # ---- derived views ----

    @property
    def done(self) -> bool:
        return self.summary is not None

    def pose_rmse_so_far(self) -> Optional[float]:
        """Running RMSE of the raw per-frame pose error (the live,
        unaligned stand-in for ATE while the run executes)."""
        if not self._pose_count:
            return None
        return (self._pose_sq_sum / self._pose_count) ** 0.5

    def fps(self) -> Optional[float]:
        """Frames per second, preferring recorded frame wall times."""
        walls = self.series["wall_time_s"]
        if walls:
            mean = sum(walls) / len(walls)
            return (1.0 / mean) if mean > 0 else None
        if (self._first_ts is not None and self._last_ts is not None
                and self.frames_seen > 1
                and self._last_ts > self._first_ts):
            return (self.frames_seen - 1) / (self._last_ts - self._first_ts)
        return None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready live view of the run (the ``/runz`` document)."""
        with self._lock:
            last = self.last_frame or {}
            fps = self.fps()
            return {
                "header": dict(self.header),
                "done": self.done,
                "frame": self.frame,
                "frames_seen": self.frames_seen,
                "frames_total": self.header.get("frames"),
                "fps": None if fps is None else round(fps, 3),
                "gaussians": last.get("gaussians"),
                "pose_error_m": last.get("pose_error_m"),
                "pose_rmse_so_far_m": self.pose_rmse_so_far(),
                "tracking": last.get("tracking"),
                "sampling": _get(last, "mapping.sampling"),
                "keyframe": last.get("keyframe"),
                "counters": last.get("counters"),
                "cache": last.get("cache"),
                "series": {key: list(values)
                           for key, values in sorted(self.series.items())},
                "alerts": list(self.alerts),
                "alert_count": self.alert_count,
                "summary": self.summary,
                "registry": self.registry,
            }
