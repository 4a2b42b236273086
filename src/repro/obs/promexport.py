"""HTTP telemetry exporter: ``/metrics``, ``/healthz``, and ``/runz``.

A stdlib-only (``http.server``) background endpoint that makes a running
process scrapeable.  It serves one
:class:`~repro.obs.telemetry.RunAggregator`, the live observer attached
to the run (``repro slam --serve-telemetry``):

- ``GET /metrics`` — the process-wide :data:`repro.obs.metrics.metrics`
  registry rendered in the Prometheus text exposition format (0.0.4),
  plus the run events the aggregator received
  (``repro_telemetry_published_total``), so a scraper can see a run
  stall;
- ``GET /healthz`` — JSON liveness: run progress, health-alert ticker,
  and the same event count (always HTTP 200 while the process serves;
  ``"status"`` flips from ``"ok"`` to ``"alerting"`` when health alerts
  fired);
- ``GET /runz`` — the aggregator's live run snapshot (frame index, fps,
  running pose RMSE, loss/Gaussian series tails, sampling composition,
  and the run summary once it lands).

Requests read the aggregator under its lock, so serving costs the run
nothing beyond the aggregator's own per-event update.

:func:`render_prometheus` and :func:`parse_prometheus_text` are exposed
directly so tests (and the CI telemetry smoke job) can round-trip the
exposition without an HTTP client.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlparse

from .telemetry import RunAggregator, TelemetryConfig

__all__ = [
    "sanitize_metric_name",
    "render_prometheus",
    "PrometheusScrape",
    "parse_prometheus_text",
    "TelemetryHTTPServer",
]

#: Prefix stamped on every exported metric name.
METRIC_PREFIX = "repro_"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)(?:\s+\d+)?$")


def sanitize_metric_name(name: str, prefix: str = METRIC_PREFIX) -> str:
    """Turn a registry key into a legal Prometheus metric name.

    Dots (the registry's namespacing convention) and any other illegal
    character become underscores; a leading digit gets an underscore
    prepended; the ``repro_`` prefix namespaces the exposition.

    >>> sanitize_metric_name("tracking_fwd.num_candidate_pairs")
    'repro_tracking_fwd_num_candidate_pairs'
    """
    cleaned = _NAME_BAD_CHARS.sub("_", str(name))
    if not cleaned:
        cleaned = "_"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    out = f"{prefix}{cleaned}"
    if not _NAME_OK.match(out):    # pragma: no cover - defensive
        raise ValueError(f"could not sanitize metric name {name!r}")
    return out


def _format_value(value: float) -> str:
    f = float(value)
    if f != f:
        return "NaN"
    if f in (float("inf"), float("-inf")):
        return "+Inf" if f > 0 else "-Inf"
    if f.is_integer() and abs(f) < 2 ** 53:
        return str(int(f))
    return repr(f)


def render_prometheus(export: Dict[str, Any],
                      live_stats: Optional[Dict[str, Any]] = None) -> str:
    """Render a :meth:`MetricsRegistry.export` payload as exposition text.

    Counters export with ``_total`` appended (Prometheus convention),
    gauges verbatim, histograms as summaries (``_count`` / ``_sum``)
    plus ``_min`` / ``_max`` gauges.  ``live_stats`` (the payload of
    :meth:`TelemetryHTTPServer.live_stats`) adds the live path's
    published-event counter.
    Output is deterministic: families sorted by exported name.
    """
    families: List[Tuple[str, str, List[Tuple[str, float]]]] = []
    for name, value in export.get("counters", {}).items():
        out = sanitize_metric_name(name)
        if not out.endswith("_total"):
            out += "_total"
        families.append((out, "counter", [(out, float(value))]))
    for name, value in export.get("gauges", {}).items():
        out = sanitize_metric_name(name)
        families.append((out, "gauge", [(out, float(value))]))
    for name, snap in export.get("histograms", {}).items():
        out = sanitize_metric_name(name)
        families.append((out, "summary", [
            (f"{out}_count", float(snap.get("count", 0))),
            (f"{out}_sum", float(snap.get("sum", 0.0))),
        ]))
        for stat in ("min", "max", "mean"):
            if stat in snap:
                families.append((f"{out}_{stat}", "gauge",
                                 [(f"{out}_{stat}", float(snap[stat]))]))
    if live_stats is not None:
        out = f"{METRIC_PREFIX}telemetry_published_total"
        families.append((out, "counter",
                         [(out, float(live_stats.get("published", 0)))]))
    warnings = export.get("warnings") or []
    families.append((f"{METRIC_PREFIX}warnings", "gauge",
                     [(f"{METRIC_PREFIX}warnings", float(len(warnings)))]))

    lines: List[str] = []
    for family, kind, samples in sorted(families):
        lines.append(f"# TYPE {family} {kind}")
        for sample, value in samples:
            lines.append(f"{sample} {_format_value(value)}")
    return "\n".join(lines) + "\n"


@dataclass
class PrometheusScrape:
    """One parsed text-exposition payload (samples + declared types)."""

    samples: Dict[str, float] = field(default_factory=dict)
    types: Dict[str, str] = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        return self.samples[name]

    def __contains__(self, name: str) -> bool:
        return name in self.samples

    def __len__(self) -> int:
        return len(self.samples)


def parse_prometheus_text(text: str) -> PrometheusScrape:
    """Parse Prometheus text exposition; raises ``ValueError`` on any
    malformed line (the round-trip check the tests and the CI smoke job
    run against ``/metrics``)."""
    scrape = PrometheusScrape()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {parts[3]!r}")
                scrape.types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {raw!r}")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad sample value {raw!r}") from exc
        scrape.samples[match.group("name")] = value
    return scrape


# ---------------------------------------------------------------------------
# The HTTP server
# ---------------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    """Routes the three endpoints; silences per-request stderr logging."""

    server: "TelemetryHTTPServer"  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _respond(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802  (http.server API)
        path = urlparse(self.path).path.rstrip("/") or "/"
        exporter = self.server
        try:
            if path == "/metrics":
                self._respond(
                    200, "text/plain; version=0.0.4; charset=utf-8",
                    exporter.render_metrics())
            elif path == "/healthz":
                self._respond(200, "application/json",
                              json.dumps(exporter.healthz(), sort_keys=True))
            elif path == "/runz":
                self._respond(200, "application/json",
                              json.dumps(exporter.runz(), sort_keys=True))
            elif path == "/":
                self._respond(
                    200, "text/plain; charset=utf-8",
                    "repro telemetry exporter\n"
                    "endpoints: /metrics /healthz /runz\n")
            else:
                self._respond(404, "text/plain; charset=utf-8",
                              f"unknown path {path}\n")
        except Exception as exc:  # pragma: no cover - defensive
            self._respond(500, "text/plain; charset=utf-8",
                          f"internal error: {exc}\n")


class TelemetryHTTPServer(ThreadingHTTPServer):
    """Background ``/metrics``–``/healthz``–``/runz`` exporter.

    Serves ``aggregator`` (a fresh one unless given; attach it to the run
    as an observer).  ``port=0`` binds an ephemeral port (tests); the
    bound address is :attr:`url`.
    """

    daemon_threads = True

    def __init__(self, config: Optional[TelemetryConfig] = None,
                 registry=None, aggregator: Optional[RunAggregator] = None):
        self.config = config or TelemetryConfig()
        if registry is None:
            from .metrics import metrics as registry
        self.registry = registry
        self.aggregator = (aggregator if aggregator is not None else
                           RunAggregator(series_len=self.config.series_len))
        self._thread: Optional[threading.Thread] = None
        super().__init__((self.config.host, self.config.port), _Handler)

    # ---- views the handler serves ----

    def live_stats(self) -> Dict[str, int]:
        """Run events the aggregator received."""
        return {"published": self.aggregator.run_events}

    def render_metrics(self) -> str:
        return render_prometheus(self.registry.export(),
                                 live_stats=self.live_stats())

    def healthz(self) -> Dict[str, Any]:
        snap = self.aggregator.snapshot()
        return {
            "status": "alerting" if snap["alert_count"] else "ok",
            "done": snap["done"],
            "frame": snap["frame"],
            "frames_seen": snap["frames_seen"],
            "alert_count": snap["alert_count"],
            "alerts": snap["alerts"],
            "live": self.live_stats(),
        }

    def runz(self) -> Dict[str, Any]:
        return self.aggregator.snapshot()

    # ---- lifecycle ----

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def start(self) -> "TelemetryHTTPServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-telemetry-http",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> Dict[str, Any]:
        """Shut the server down; returns final serve statistics."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.server_close()
        return {"url": self.url, **self.live_stats()}
