"""Prometheus exporter: name sanitization, exposition render/parse
round-trip, and the /metrics–/healthz–/runz HTTP server end-to-end."""

import json
import threading
import urllib.request

import pytest

from repro.core import SplatonicConfig
from repro.datasets import make_replica_sequence
from repro.obs.metrics import MetricsRegistry
from repro.obs.promexport import (
    TelemetryHTTPServer,
    parse_prometheus_text,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.telemetry import RunAggregator, TelemetryConfig
from repro.slam import SLAMSystem


class TestSanitizeMetricName:
    @pytest.mark.parametrize("raw,expected", [
        ("tracking_fwd.num_candidate_pairs",
         "repro_tracking_fwd_num_candidate_pairs"),
        ("slam.pose_error_m", "repro_slam_pose_error_m"),
        ("weird-name with spaces", "repro_weird_name_with_spaces"),
        ("3dgs.gaussians", "repro__3dgs_gaussians"),
        ("already_fine", "repro_already_fine"),
    ])
    def test_cases(self, raw, expected):
        assert sanitize_metric_name(raw) == expected

    def test_result_is_always_legal(self):
        import re
        legal = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
        for raw in ("", "!!!", "9lives", "a.b.c", "ü"):
            assert legal.match(sanitize_metric_name(raw)), raw


class TestRenderParse:
    def _registry(self):
        reg = MetricsRegistry()
        reg.inc("tracking.iterations", 42)
        reg.set_gauge("slam.pose_error_m", 0.0123)
        reg.observe("tracking.loss", 0.5)
        reg.observe("tracking.loss", 0.25)
        return reg

    def test_round_trip(self):
        reg = self._registry()
        text = render_prometheus(reg.export())
        scrape = parse_prometheus_text(text)
        assert scrape["repro_tracking_iterations_total"] == 42
        assert scrape.types["repro_tracking_iterations_total"] == "counter"
        assert scrape["repro_slam_pose_error_m"] == pytest.approx(0.0123)
        assert scrape.types["repro_slam_pose_error_m"] == "gauge"
        assert scrape["repro_tracking_loss_count"] == 2
        assert scrape["repro_tracking_loss_sum"] == pytest.approx(0.75)
        assert scrape.types["repro_tracking_loss"] == "summary"
        assert scrape["repro_tracking_loss_min"] == pytest.approx(0.25)
        assert scrape["repro_tracking_loss_max"] == pytest.approx(0.5)
        assert scrape["repro_warnings"] == 0

    def test_live_stats_exported_as_counters(self):
        text = render_prometheus(MetricsRegistry().export(),
                                 live_stats={"published": 2})
        scrape = parse_prometheus_text(text)
        assert scrape["repro_telemetry_published_total"] == 2
        assert scrape.types["repro_telemetry_published_total"] == "counter"

    def test_every_sample_has_a_declared_type(self):
        text = render_prometheus(self._registry().export())
        scrape = parse_prometheus_text(text)
        for name in scrape.samples:
            family = name
            for suffix in ("_count", "_sum"):
                if family.endswith(suffix):
                    family = family[:-len(suffix)]
            assert family in scrape.types, name

    def test_output_is_deterministic_and_sorted(self):
        reg = self._registry()
        assert render_prometheus(reg.export()) == render_prometheus(
            reg.export())
        families = [line.split()[2] for line in
                    render_prometheus(reg.export()).splitlines()
                    if line.startswith("# TYPE")]
        assert families == sorted(families)

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("this is { not a metric\n")
        with pytest.raises(ValueError, match="bad sample value"):
            parse_prometheus_text("repro_x twelve\n")
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_prometheus_text("# TYPE repro_x sparkline\n")

    def test_parse_accepts_labels_comments_and_blank_lines(self):
        scrape = parse_prometheus_text(
            "# HELP whatever\n\n"
            "up{job=\"slam\",instance=\"local\"} 1\n"
            "# TYPE repro_inf gauge\nrepro_inf +Inf\n")
        assert scrape["up"] == 1
        assert scrape["repro_inf"] == float("inf")


@pytest.fixture
def server():
    """An exporter on an ephemeral port over its own aggregator."""
    registry = MetricsRegistry()
    registry.inc("tracking.iterations", 7)
    srv = TelemetryHTTPServer(TelemetryConfig(port=0), registry=registry)
    srv.start()
    try:
        yield srv, srv.aggregator
    finally:
        srv.stop()


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.headers.get("Content-Type"), \
            resp.read().decode("utf-8")


class TestHTTPServer:
    def test_metrics_endpoint_parses_with_zero_drops(self, server):
        srv, agg = server
        agg.consume("frame", {"frame": 0, "gaussians": 10})
        status, ctype, body = _get(f"{srv.url}/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        scrape = parse_prometheus_text(body)
        assert scrape["repro_tracking_iterations_total"] == 7
        assert scrape["repro_telemetry_published_total"] == 1

    def test_healthz_flips_to_alerting(self, server):
        srv, agg = server
        _, _, body = _get(f"{srv.url}/healthz")
        assert json.loads(body)["status"] == "ok"
        agg.consume("alert", {"monitor": "pose_jump", "frame": 3})
        _, _, body = _get(f"{srv.url}/healthz")
        doc = json.loads(body)
        assert doc["status"] == "alerting"
        assert doc["alert_count"] == 1
        assert doc["alerts"][0]["monitor"] == "pose_jump"
        assert doc["live"] == {"published": 0}

    def test_runz_reflects_run_stream(self, server):
        srv, agg = server
        agg.consume("header", {"frames": 4, "algorithm": "splatam"})
        for i in range(2):
            agg.consume("frame", {
                "frame": i, "pose_error_m": 0.01, "gaussians": 50 + i,
                "wall_time_s": 0.2})
        _, ctype, body = _get(f"{srv.url}/runz")
        assert ctype == "application/json"
        doc = json.loads(body)
        assert doc["frames_total"] == 4
        assert doc["frames_seen"] == 2
        assert doc["frame"] == 1
        assert doc["gaussians"] == 51
        assert doc["fps"] == pytest.approx(5.0)
        assert not doc["done"]
        agg.consume("summary", {"frames": 2})
        _, _, body = _get(f"{srv.url}/runz")
        assert json.loads(body)["done"]

    def test_root_and_404(self, server):
        srv, _ = server
        status, _, body = _get(f"{srv.url}/")
        assert status == 200 and "/metrics" in body
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{srv.url}/nope")
        assert err.value.code == 404

    def test_stop_reports_stats(self):
        srv = TelemetryHTTPServer(TelemetryConfig(port=0))
        srv.start()
        srv.aggregator.consume("frame", {"frame": 0})
        stats = srv.stop()
        assert stats == {"url": srv.url, "published": 1}

    def test_polling_during_a_run_never_goes_backwards(self):
        """/runz and /healthz polled from another thread while a run
        feeds the aggregator: every request succeeds and the frame count
        only grows."""
        sequence = make_replica_sequence("room0", n_frames=4, width=24,
                                         height=18, surface_density=10)
        aggregator = RunAggregator(gauges=MetricsRegistry())
        srv = TelemetryHTTPServer(TelemetryConfig(port=0),
                                  registry=MetricsRegistry(),
                                  aggregator=aggregator).start()
        seen, errors = [], []
        done = threading.Event()

        def poll():
            while not done.is_set():
                try:
                    for path in ("/runz", "/healthz"):
                        _, _, body = _get(f"{srv.url}{path}")
                        seen.append(json.loads(body)["frames_seen"])
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    return

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            SLAMSystem("splatam", splatonic_config=SplatonicConfig(
                tracking_tile=8)).run(sequence, observers=[aggregator])
        finally:
            done.set()
            poller.join(timeout=10.0)
            srv.stop()
        assert not errors, errors
        assert seen and seen == sorted(seen)
        assert aggregator.snapshot()["frames_seen"] == 4
        assert aggregator.run_events == 6
