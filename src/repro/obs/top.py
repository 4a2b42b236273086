"""``repro top``: a live terminal dashboard over the telemetry stream.

Renders the :meth:`~repro.obs.telemetry.RunAggregator.snapshot` document
— the same JSON the HTTP exporter serves at ``/runz`` — as a compact
ANSI dashboard: run header and progress, frame rate, running pose RMSE,
loss/Gaussian-count sparklines, the mapper's sampling composition,
kernel workload counters, and a health-alert ticker.

Three snapshot sources cover the three ways to watch a run:

- :class:`LiveSource` — subscribe to the in-process bus (used when the
  dashboard shares the process with the run);
- :class:`HttpSource` — poll a ``repro slam --serve-telemetry``
  endpoint's ``/runz`` (remote / cross-process);
- :class:`FlightSource` — replay a recorded flight-record JSONL (static;
  the ``repro top --once --from-flight run.jsonl`` snapshot render).

Headline parity: the finished-run footer formats ATE, final map size,
and total tracking iterations with exactly the strings
``repro report`` prints, so the live view and the post-hoc report never
disagree about a run's outcome.
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Any, Dict, List, Optional
from urllib.request import urlopen

from .report import sparkline
from .telemetry import RunAggregator, TelemetryBus, bus as default_bus

__all__ = [
    "LiveSource",
    "HttpSource",
    "FlightSource",
    "render_dashboard",
    "run_top",
]

#: Sparkline rows: (label, snapshot series key).
_SPARK_ROWS = (
    ("pose err (m)", "pose_error_m"),
    ("track loss", "tracking_loss"),
    ("map loss", "mapping_loss"),
    ("gaussians", "gaussians"),
    ("cache hit rate", "cache_hit_rate"),
    ("frame wall (s)", "wall_time_s"),
)

_CLEAR = "\x1b[2J\x1b[H"
_BOLD, _DIM, _RED, _RESET = "\x1b[1m", "\x1b[2m", "\x1b[31m", "\x1b[0m"


# ---------------------------------------------------------------------------
# Snapshot sources
# ---------------------------------------------------------------------------

class LiveSource:
    """Snapshots from the in-process telemetry bus."""

    def __init__(self, bus_: Optional[TelemetryBus] = None,
                 series_len: int = 120):
        self.bus = bus_ if bus_ is not None else default_bus
        self.aggregator = RunAggregator(series_len=series_len)
        self._sub = self.bus.subscribe(
            kinds=("header", "frame", "summary", "alert", "registry"),
            name="top:live")

    def snapshot(self) -> Dict[str, Any]:
        self._sub.drain_into(self.aggregator.consume_event)
        return self.aggregator.snapshot()

    def close(self) -> None:
        self.bus.unsubscribe(self._sub)


class HttpSource:
    """Snapshots polled from a telemetry exporter's ``/runz``."""

    def __init__(self, endpoint: str, timeout: float = 5.0):
        endpoint = endpoint.strip().rstrip("/")
        if not endpoint.startswith(("http://", "https://")):
            endpoint = "http://" + endpoint
        if endpoint.endswith("/runz"):
            endpoint = endpoint[: -len("/runz")]
        self.endpoint = endpoint
        self.timeout = float(timeout)

    def snapshot(self) -> Dict[str, Any]:
        with urlopen(f"{self.endpoint}/runz", timeout=self.timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def close(self) -> None:
        pass


class FlightSource:
    """Static snapshot replayed from a flight-record JSONL file."""

    def __init__(self, path: str, series_len: int = 120):
        from .flight import read_flight_record

        self.path = path
        log = read_flight_record(path)
        agg = RunAggregator(series_len=series_len)
        agg.consume("header", log.header)
        for frame in log.frames:
            agg.consume("frame", frame)
        if log.summary is not None:
            agg.consume("summary", log.summary)
        self.aggregator = agg

    def snapshot(self) -> Dict[str, Any]:
        return self.aggregator.snapshot()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _num(value: Any, digits: int = 4) -> str:
    if value is None:
        return "—"
    try:
        f = float(value)
    except (TypeError, ValueError):
        return str(value)
    if not math.isfinite(f):
        return str(f)
    if f.is_integer() and abs(f) < 1e15:
        return f"{int(f):,}"
    return f"{f:.{digits}g}"


def _cm(metres: Any) -> str:
    """Metres → the report's centimetre formatting (``1.23 cm``)."""
    if metres is None:
        return "—"
    return f"{float(metres) * 100:.2f} cm"


def _progress_bar(current: Optional[int], total: Optional[int],
                  width: int = 24) -> str:
    if current is None or not total:
        return ""
    frac = min(1.0, (current + 1) / float(total))
    filled = int(round(frac * width))
    return f"[{'#' * filled}{'.' * (width - filled)}] {current + 1}/{total}"


def _kernel_label(header: Dict[str, Any]) -> str:
    """The kernel backend (``+cache`` with the render cache) from the
    flight header config.

    Surfaces the run's execution path so wall-time deltas between
    registry runs can be attributed to it straight from the dashboard.
    Empty for pre-backend flight records.
    """
    config = header.get("config") or {}
    backend = config.get("kernel_backend")
    if not backend:
        return ""
    label = str(backend)
    if config.get("render_cache"):
        label += "+cache"
    return label


def _spark_range(values: List[float]) -> str:
    finite = [v for v in values if isinstance(v, (int, float))
              and math.isfinite(float(v))]
    if not finite:
        return ""
    return f"{_num(min(finite))} .. {_num(max(finite))}"


def render_dashboard(snapshot: Dict[str, Any], width: int = 100,
                     color: bool = True) -> str:
    """Render one ``/runz`` snapshot as a multi-line ANSI dashboard."""
    bold, dim, red, reset = ((_BOLD, _DIM, _RED, _RESET) if color
                             else ("", "", "", ""))
    header = snapshot.get("header") or {}
    summary = snapshot.get("summary") or {}
    series = snapshot.get("series") or {}
    sampling = snapshot.get("sampling") or {}
    tracking = snapshot.get("tracking") or {}
    keyframe = snapshot.get("keyframe") or {}
    spark_width = max(16, min(60, width - 36))

    lines: List[str] = []
    title = (f"{bold}repro top{reset} — "
             f"{header.get('algorithm', '?')}/{header.get('mode', '?')}")
    sequence = header.get("sequence")
    if sequence:
        title += f" · {sequence}"
    bar = _progress_bar(snapshot.get("frame"), snapshot.get("frames_total"))
    if bar:
        title += f" · {bar}"
    if snapshot.get("done"):
        title += f" · {bold}done{reset}"
    lines.append(title)

    walls = series.get("wall_time_s") or []
    status = (
        f"  fps {_num(snapshot.get('fps'))}"
        f" · frame wall {_num(walls[-1] if walls else None)} s"
        f" · gaussians {_num(snapshot.get('gaussians'))}"
        f" · keyframes {_num(keyframe.get('buffer_size'))}")
    kern = _kernel_label(header)
    if kern:
        status += f" · kernel {kern}"
    lines.append(status)
    pose_line = (
        f"  pose rmse so far {_cm(snapshot.get('pose_rmse_so_far_m'))}"
        f" · last err {_cm(snapshot.get('pose_error_m'))}")
    if tracking:
        pose_line += (f" · track iters {_num(tracking.get('iterations'))}"
                      f" ({'conv' if tracking.get('converged') else 'div'},"
                      f" loss {_num(tracking.get('final_loss'))})")
    lines.append(pose_line)

    if sampling:
        total = sampling.get("total") or 0
        parts = [f"  sampling:"]
        for key in ("unseen", "weighted"):
            count = sampling.get(key)
            if count is not None and total:
                parts.append(f"{key} {100.0 * count / total:.0f}%")
            elif count is not None:
                parts.append(f"{key} {_num(count)}")
        if sampling.get("unseen_coverage") is not None:
            parts.append(f"coverage {_num(sampling['unseen_coverage'])}")
        if sampling.get("full_frame"):
            parts.append("full-frame")
        lines.append(" · ".join(parts))

    for label, key in _SPARK_ROWS:
        values = series.get(key) or []
        if not values:
            continue
        lines.append(f"  {label:<15}{dim}{sparkline(values, spark_width)}"
                     f"{reset}  {dim}{_spark_range(values)}{reset}")

    counters = snapshot.get("counters") or {}
    counter_bits = []
    for stage in ("tracking_fwd", "mapping_fwd"):
        headline = counters.get(stage) or {}
        pairs = headline.get("num_contrib_pairs")
        if pairs is not None:
            counter_bits.append(f"{stage} contrib {_num(pairs)}")
    if counter_bits:
        lines.append(f"  {dim}counters: {' · '.join(counter_bits)}{reset}")

    cache = snapshot.get("cache") or {}
    if (cache.get("hits") or 0) + (cache.get("misses") or 0):
        lines.append(
            f"  {dim}render cache: hit rate "
            f"{100.0 * (cache.get('hit_rate') or 0.0):.0f}%"
            f" · hits {_num(cache.get('hits'))}"
            f" · misses {_num(cache.get('misses'))}"
            f" · rebuilds {_num(cache.get('rebuilds'))}{reset}")

    alerts = snapshot.get("alerts") or []
    count = snapshot.get("alert_count") or 0
    if count:
        lines.append(f"  {red}alerts ({_num(count)}):{reset}")
        for alert in list(alerts)[-4:]:
            frame = alert.get("frame")
            where = f"[frame {frame}] " if frame is not None else ""
            lines.append(f"    {red}{where}{alert.get('monitor', '?')}: "
                         f"{alert.get('message', '')}{reset}")
    else:
        lines.append(f"  {dim}alerts: none{reset}")

    if summary:
        ate = summary.get("ate") or {}
        # Same strings as `repro report` — headline parity.
        final_lines = [f"  {bold}final:{reset}"]
        if ate:
            final_lines.append(
                f"    ATE rmse {ate.get('rmse', 0) * 100:.2f} cm "
                f"(median {ate.get('median', 0) * 100:.2f} cm, "
                f"max {ate.get('max', 0) * 100:.2f} cm)")
        if "final_gaussians" in summary:
            final_lines.append(
                f"    {summary['final_gaussians']} Gaussians after "
                f"{summary.get('mapping_invocations', '?')} mapping "
                f"invocations")
        if "tracking_iterations" in summary:
            final_lines.append(
                f"    {summary['tracking_iterations']} iterations total")
        kern = _kernel_label(header)
        if kern:
            final_lines.append(f"    kernel backend {kern}")
        lines.extend(final_lines)

    registry = snapshot.get("registry") or {}
    if registry.get("run_id"):
        lines.append(
            f"  {dim}registered:{reset} run {bold}{registry['run_id']}{reset}"
            f" · registry {registry.get('root', '?')}"
            f" ({_num(registry.get('runs_total'))} runs) — "
            f"repro runs show {registry['run_id']}")

    return "\n".join(line[: width + 24] if not color else line
                     for line in lines) + "\n"


# ---------------------------------------------------------------------------
# The top loop
# ---------------------------------------------------------------------------

def run_top(source, interval: float = 0.5, once: bool = False,
            width: int = 100, color: bool = True, out=None,
            max_iterations: Optional[int] = None) -> Dict[str, Any]:
    """Render snapshots from ``source`` until the run finishes.

    ``once`` renders a single snapshot without clearing the screen (the
    scriptable mode the tests and CI use).  Returns the last snapshot.
    ``max_iterations`` bounds the loop for tests.
    """
    stream = out if out is not None else sys.stdout
    snapshot: Dict[str, Any] = {}
    iterations = 0
    try:
        while True:
            snapshot = source.snapshot()
            text = render_dashboard(snapshot, width=width, color=color)
            if once:
                stream.write(text)
                break
            stream.write(_CLEAR if color else "\n")
            stream.write(text)
            stream.flush()
            iterations += 1
            if snapshot.get("done"):
                break
            if max_iterations is not None and iterations >= max_iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:   # pragma: no cover - interactive
        pass
    finally:
        source.close()
    return snapshot
