"""Online health monitors over the SLAM run-event stream.

A :class:`HealthMonitor` is a run observer: it watches per-frame records
as :meth:`repro.slam.SLAMSystem.run` emits them, attaches the alerts each
frame raised to that frame's record (and every alert to the summary),
and raises structured :class:`HealthAlert`\\ s when a run starts
going wrong *while it is still running*:

- ``non_finite``       — NaN/∞ in losses or poses (also reachable
  directly from the tracker/mapper iteration guards, which fire even
  when nothing observes the run);
- ``pose_jump``        — a translation step far above the run's rolling
  median step (the constant-velocity prior says consecutive frames move
  by similar amounts);
- ``loss_divergence``  — the sliding window of tracking losses sits
  entirely above the best loss the run had already reached;
- ``coverage_collapse``— the unseen-by-transmittance fraction of a
  mapping pass stays above threshold after warm-up (the map stopped
  covering the view, Eqn. 2 territory);
- ``densify_runaway``  — the Gaussian count grows by more than a factor
  in one mapping invocation after warm-up;
- ``frame_time_spike`` — one frame's wall time is an outlier against the
  rolling median wall time of frames of its kind (mapping passes compare
  against mapping passes, tracking-only frames against tracking-only
  ones; rising-edge: a sustained slowdown alerts once, not every frame).

Every alert is routed through the :data:`~repro.obs.metrics.metrics`
registry (a ``health.alerts.<monitor>`` counter plus a logged warning),
and the monitor's ``on_alert`` policy escalates: ``"warn"`` records
and continues, ``"raise"`` aborts the run with :exc:`HealthError`.
Every other run observer sees each alert once, inside its frame record.  The alert that
aborts a run never reaches a record: it travels on the exception
(:attr:`HealthError.alert`), and ``repro slam`` closes the flight
record with it.

Module-level imports are stdlib-only (``math.isfinite`` + duck typing
cover numpy scalars), keeping :mod:`repro.obs` cycle-free.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .metrics import metrics

__all__ = [
    "HealthAlert",
    "HealthError",
    "HealthMonitor",
    "get_monitor",
    "set_monitor",
    "use_monitor",
]


class HealthError(RuntimeError):
    """Raised by a monitor whose policy is ``on_alert="raise"``."""

    def __init__(self, alert: "HealthAlert"):
        super().__init__(alert.message)
        self.alert = alert


# Thresholds.  They are loose enough that healthy proxy-scale runs never
# alert; see EXPERIMENTS.md "Flight recorder" for how they were chosen.

#: A translation step alerts when it exceeds this multiple of the rolling
#: median step ...
_POSE_JUMP_FACTOR = 10.0
#: ... and this absolute floor (metres) — tiny scenes jitter.
_POSE_JUMP_MIN_M = 0.05
#: Number of recent steps the rolling median considers.
_POSE_HISTORY = 8
#: Sliding-window length for the loss-divergence monitor.
_LOSS_WINDOW = 5
#: The window diverges when its *minimum* exceeds this multiple of the
#: best loss observed before the window.
_LOSS_DIVERGENCE_FACTOR = 2.0
#: Unseen-pixel fraction above which a mapping pass alerts ...
_COVERAGE_COLLAPSE = 0.5
#: ... once this many mapping passes have been observed (early frames
#: legitimately see mostly-unseen pixels).
_COVERAGE_WARMUP = 2
#: Gaussian-count growth factor per mapping invocation that alerts ...
_DENSIFY_GROWTH_FACTOR = 1.75
#: ... after this many invocations (bootstrap growth is expected).
_DENSIFY_WARMUP = 2
#: A frame's wall time alerts when it exceeds this multiple of the
#: rolling median wall time of frames of its kind (mapping frames compare
#: against mapping frames; wall time is nondeterministic, so tests that
#: count alerts exactly set it to ``inf``) ...
_FRAME_TIME_FACTOR = 10.0
#: ... and this absolute floor (seconds) — timer jitter on fast proxy
#: frames is not a spike.
_FRAME_TIME_MIN_S = 0.05
#: Number of recent frame wall times the rolling median considers.
_FRAME_TIME_HISTORY = 8


@dataclass
class HealthAlert:
    """One structured warning from a monitor."""

    monitor: str
    message: str
    frame: Optional[int] = None
    value: Optional[float] = None
    threshold: Optional[float] = None
    context: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"monitor": self.monitor,
                               "message": self.message}
        if self.frame is not None:
            out["frame"] = int(self.frame)
        if self.value is not None:
            out["value"] = float(self.value)
        if self.threshold is not None:
            out["threshold"] = float(self.threshold)
        if self.context:
            out["context"] = dict(self.context)
        return out


def _is_finite(value: Any) -> bool:
    """Finite check over scalars and (possibly nested) sequences."""
    if value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_finite(v) for v in value)
    try:
        return math.isfinite(float(value))
    except TypeError:
        # numpy arrays and other array-likes expose tolist().
        tolist = getattr(value, "tolist", None)
        if callable(tolist):
            return _is_finite(tolist())
        return True
    except (ValueError, OverflowError):
        return False


def _median(values: List[float]) -> float:
    xs = sorted(values)
    n = len(xs)
    mid = n // 2
    if n % 2:
        return xs[mid]
    return 0.5 * (xs[mid - 1] + xs[mid])


class HealthMonitor:
    """Stream watcher: feed it frame records, collect structured alerts.

    ``on_alert="warn"`` records alerts and continues; ``"raise"`` aborts
    the run with :exc:`HealthError` at the first alert.
    """

    def __init__(self, on_alert: str = "warn"):
        if on_alert not in ("warn", "raise"):
            raise ValueError("on_alert must be 'warn' or 'raise'")
        self.on_alert = on_alert
        self.alerts: List[HealthAlert] = []
        self.begin_run()

    # ---- run lifecycle ----

    def begin_run(self) -> None:
        """Reset per-run monitor state (alerts persist per instance)."""
        self.alerts = []
        self._reported = 0
        self._last_position: Optional[List[float]] = None
        self._steps: List[float] = []
        self._losses: List[float] = []
        self._loss_diverged = False
        self._coverage_collapsed = False
        self._mapping_passes = 0
        self._densify_invocations = 0
        self._last_gaussians: Optional[int] = None
        self._frame_times: Dict[str, List[float]] = {}
        self._frame_time_spiking = False

    # ---- alert plumbing ----

    def _alert(self, monitor: str, message: str,
               frame: Optional[int] = None,
               value: Optional[float] = None,
               threshold: Optional[float] = None,
               **context) -> HealthAlert:
        alert = HealthAlert(monitor=monitor, message=message, frame=frame,
                            value=value, threshold=threshold,
                            context={k: v for k, v in context.items()
                                     if v is not None})
        self.alerts.append(alert)
        metrics.inc(f"health.alerts.{monitor}")
        metrics.warn(f"health[{monitor}]: {message}")
        if self.on_alert == "raise":
            raise HealthError(alert)
        return alert

    def non_finite(self, name: str, frame: Optional[int] = None,
                   **context) -> HealthAlert:
        """Record a NaN/∞ detection (used by the iteration guards)."""
        return self._alert(
            "non_finite",
            f"non-finite value in {name}"
            + (f" (frame {frame})" if frame is not None else ""),
            frame=frame, **context)

    def check_finite(self, name: str, value: Any,
                     frame: Optional[int] = None, **context) -> bool:
        """Alert (and return False) when ``value`` contains NaN/∞."""
        if _is_finite(value):
            return True
        self.non_finite(name, frame=frame, **context)
        return False

    # ---- run-event observer (see SLAMSystem.run) ----

    def on_header(self, header: Dict[str, Any]) -> None:
        self.begin_run()

    def on_frame(self, record: Dict[str, Any]) -> None:
        """Check the frame, then attach every alert raised since the last
        frame (the tracker/mapper finite guards' included)."""
        self.observe_frame(record)
        if len(self.alerts) > self._reported:
            record["alerts"] = [a.as_dict()
                                for a in self.alerts[self._reported:]]
            self._reported = len(self.alerts)

    def on_summary(self, summary: Dict[str, Any]) -> None:
        summary["alerts"] = [a.as_dict() for a in self.alerts]

    # ---- the frame-stream monitors ----

    def observe_frame(self, record: Dict[str, Any]) -> List[HealthAlert]:
        """Run every monitor over one frame record; returns new alerts."""
        before = len(self.alerts)
        frame = record.get("frame")
        self._check_finiteness(record, frame)
        self._check_pose_jump(record, frame)
        self._check_loss_divergence(record, frame)
        self._check_coverage(record, frame)
        self._check_densification(record, frame)
        self._check_frame_time(record, frame)
        return self.alerts[before:]

    def _check_finiteness(self, record, frame) -> None:
        self.check_finite("pose_est", record.get("pose_est"), frame=frame)
        tracking = record.get("tracking") or {}
        self.check_finite("tracking.final_loss",
                          tracking.get("final_loss"), frame=frame)
        mapping = record.get("mapping") or {}
        self.check_finite("mapping.final_loss",
                          mapping.get("final_loss"), frame=frame)

    @staticmethod
    def _position(record) -> Optional[List[float]]:
        pose = record.get("pose_est")
        if not isinstance(pose, (list, tuple)) or len(pose) != 4:
            return None
        try:
            return [float(pose[i][3]) for i in range(3)]
        except (TypeError, IndexError, ValueError):
            return None

    def _check_pose_jump(self, record, frame) -> None:
        position = self._position(record)
        if position is None:
            return
        if self._last_position is not None:
            step = math.sqrt(sum(
                (a - b) ** 2 for a, b in zip(position, self._last_position)))
            if _is_finite(step) and len(self._steps) >= 3:
                median_step = _median(self._steps)
                limit = max(_POSE_JUMP_MIN_M,
                            _POSE_JUMP_FACTOR * median_step)
                if step > limit:
                    self._alert(
                        "pose_jump",
                        f"frame {frame}: translation step {step:.3f} m "
                        f"exceeds {limit:.3f} m "
                        f"({_POSE_JUMP_FACTOR:g}x rolling median "
                        f"{median_step:.4f} m)",
                        frame=frame, value=step, threshold=limit)
            if _is_finite(step):
                self._steps.append(step)
                del self._steps[:-_POSE_HISTORY]
        self._last_position = position

    def _check_loss_divergence(self, record, frame) -> None:
        tracking = record.get("tracking") or {}
        loss = tracking.get("final_loss")
        if loss is None or not _is_finite(loss):
            return
        self._losses.append(float(loss))
        window = _LOSS_WINDOW
        if len(self._losses) <= window:
            return
        best_before = min(self._losses[:-window])
        window_min = min(self._losses[-window:])
        diverged = window_min > _LOSS_DIVERGENCE_FACTOR * best_before + 1e-12
        if diverged and not self._loss_diverged:
            self._alert(
                "loss_divergence",
                f"frame {frame}: tracking loss window min {window_min:.5f} "
                f"is {_LOSS_DIVERGENCE_FACTOR:g}x above the best "
                f"{best_before:.5f}",
                frame=frame, value=window_min,
                threshold=_LOSS_DIVERGENCE_FACTOR * best_before)
        self._loss_diverged = diverged

    def _check_coverage(self, record, frame) -> None:
        mapping = record.get("mapping") or {}
        sampling = mapping.get("sampling") or {}
        coverage = sampling.get("unseen_coverage")
        if coverage is None or not _is_finite(coverage):
            return
        self._mapping_passes += 1
        if self._mapping_passes <= _COVERAGE_WARMUP:
            return
        collapsed = float(coverage) > _COVERAGE_COLLAPSE
        if collapsed and not self._coverage_collapsed:
            self._alert(
                "coverage_collapse",
                f"frame {frame}: unseen-transmittance coverage "
                f"{float(coverage):.2f} exceeds {_COVERAGE_COLLAPSE:g} "
                f"after warm-up — the map no longer covers the view",
                frame=frame, value=float(coverage),
                threshold=_COVERAGE_COLLAPSE)
        self._coverage_collapsed = collapsed

    def _check_densification(self, record, frame) -> None:
        mapping = record.get("mapping") or {}
        gaussians = record.get("gaussians")
        if gaussians is None or not mapping.get("invoked"):
            return
        self._densify_invocations += 1
        previous = self._last_gaussians
        self._last_gaussians = int(gaussians)
        if previous is None or previous <= 0:
            return
        if self._densify_invocations <= _DENSIFY_WARMUP:
            return
        growth = int(gaussians) / previous
        if growth > _DENSIFY_GROWTH_FACTOR:
            self._alert(
                "densify_runaway",
                f"frame {frame}: map grew {growth:.2f}x in one mapping "
                f"invocation ({previous} -> {int(gaussians)} Gaussians)",
                frame=frame, value=growth,
                threshold=_DENSIFY_GROWTH_FACTOR)

    def _check_frame_time(self, record, frame) -> None:
        wall = record.get("wall_time_s")
        if wall is None or not _is_finite(wall):
            return
        wall = float(wall)
        # Mapping frames legitimately cost many times a tracking-only
        # frame, so each frame compares only against the rolling median
        # of its own kind — a mapping pass is an outlier among mapping
        # passes, not among cheap tracking frames.  Each bucket needs
        # >=3 observations before the median is meaningful (the same
        # warm-up the pose-jump monitor uses).
        mapping = record.get("mapping") or {}
        bucket = "mapping" if mapping.get("invoked") else "tracking"
        history = self._frame_times.setdefault(bucket, [])
        if len(history) >= 3:
            median_wall = _median(history)
            limit = max(_FRAME_TIME_MIN_S,
                        _FRAME_TIME_FACTOR * median_wall)
            spiking = wall > limit
            if spiking and not self._frame_time_spiking:
                self._alert(
                    "frame_time_spike",
                    f"frame {frame}: {bucket} wall time {wall:.3f} s "
                    f"exceeds {limit:.3f} s ({_FRAME_TIME_FACTOR:g}x "
                    f"rolling {bucket} median {median_wall:.4f} s)",
                    frame=frame, value=wall, threshold=limit)
            self._frame_time_spiking = spiking
        history.append(wall)
        del history[:-_FRAME_TIME_HISTORY]


#: Process-wide default monitor.  The tracker/mapper iteration guards
#: route through this instance, so NaN detection works even when no
#: monitor is attached to the run.
_monitor = HealthMonitor()


def get_monitor() -> HealthMonitor:
    """The process-wide default :class:`HealthMonitor`."""
    return _monitor


def set_monitor(monitor: HealthMonitor) -> HealthMonitor:
    """Swap the default monitor (returns the previous one)."""
    global _monitor
    previous = _monitor
    _monitor = monitor
    return previous


@contextmanager
def use_monitor(monitor: Optional[HealthMonitor]):
    """Temporarily install ``monitor`` as the process default.

    ``SLAMSystem.run`` wraps itself in this so the tracker/mapper
    iteration guards — which always call :func:`get_monitor` — route
    into a per-run monitor when one is supplied.  ``None`` is a no-op
    (the current default stays active).
    """
    if monitor is None:
        yield get_monitor()
        return
    previous = set_monitor(monitor)
    try:
        yield monitor
    finally:
        set_monitor(previous)
