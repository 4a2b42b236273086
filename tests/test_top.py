"""``repro top``: dashboard rendering, snapshot sources, and headline
parity with the post-hoc ``repro report``."""

import json
from urllib.request import urlopen

import pytest

from repro.cli import main
from repro.obs.flight import read_flight_record
from repro.obs.promexport import TelemetryHTTPServer
from repro.obs.report import render_report
from repro.obs.top import (
    FlightSource,
    HttpSource,
    render_dashboard,
    run_top,
)


@pytest.fixture(scope="class")
def record_path(tmp_path_factory):
    """A short recorded run every test in the class shares."""
    path = str(tmp_path_factory.mktemp("top") / "run.jsonl")
    main(["-q", "slam", "--frames", "3", "--width", "24", "--height", "18",
          "--tracking-tile", "8", "--flight-record", path])
    return path


def _snapshot(done=True, alerts=()):
    snap = {
        "header": {"algorithm": "splatam", "mode": "sparse", "frames": 5,
                   "sequence": "synth"},
        "done": done,
        "frame": 4,
        "frames_seen": 5,
        "frames_total": 5,
        "fps": 2.5,
        "gaussians": 640,
        "pose_error_m": 0.0123,
        "pose_rmse_so_far_m": 0.0150,
        "tracking": {"iterations": 12, "converged": True,
                     "final_loss": 0.031},
        "sampling": {"total": 100, "unseen": 40, "weighted": 60,
                     "unseen_coverage": 0.8},
        "keyframe": {"buffer_size": 3},
        "counters": {"tracking_fwd": {"num_contrib_pairs": 1234}},
        "series": {"pose_error_m": [0.02, 0.015, 0.0123],
                   "tracking_loss": [0.2, 0.1, 0.031],
                   "mapping_loss": [],
                   "gaussians": [600, 620, 640],
                   "alpha_rejection": [0.4, 0.4, 0.4],
                   "wall_time_s": [0.4, 0.4, 0.4]},
        "alerts": list(alerts),
        "alert_count": len(alerts),
        "summary": None,
    }
    if done:
        snap["summary"] = {
            "frames": 5, "final_gaussians": 640, "mapping_invocations": 2,
            "tracking_iterations": 60,
            "ate": {"rmse": 0.0155, "median": 0.0150, "max": 0.0210},
        }
    return snap


class TestRenderDashboard:
    def test_renders_every_section(self):
        text = render_dashboard(_snapshot(), color=False)
        assert "repro top" in text
        assert "splatam/sparse" in text and "synth" in text
        assert "[########################] 5/5" in text
        assert "fps 2.5" in text
        assert "gaussians 640" in text
        assert "pose rmse so far 1.50 cm" in text
        assert "last err 1.23 cm" in text
        assert "track iters 12 (conv, loss 0.031)" in text
        assert "unseen 40%" in text and "weighted 60%" in text
        assert "pose err (m)" in text and "gaussians" in text
        assert "tracking_fwd contrib 1,234" in text
        assert "alerts: none" in text
        assert "done" in text

    def test_final_block_uses_report_strings(self):
        text = render_dashboard(_snapshot(), color=False)
        assert "ATE rmse 1.55 cm (median 1.50 cm, max 2.10 cm)" in text
        assert "640 Gaussians after 2 mapping invocations" in text
        assert "60 iterations total" in text

    def test_in_progress_snapshot_has_no_final_block(self):
        text = render_dashboard(_snapshot(done=False), color=False)
        assert "final:" not in text and "ATE rmse" not in text
        assert "done" not in text.splitlines()[0]

    def test_alert_ticker_shows_most_recent(self):
        alerts = [{"monitor": f"m{i}", "frame": i, "message": f"msg {i}"}
                  for i in range(6)]
        text = render_dashboard(_snapshot(alerts=alerts), color=False)
        assert "alerts (6):" in text
        assert "[frame 5] m5: msg 5" in text
        assert "m1:" not in text          # only the last 4 shown

    def test_color_mode_emits_ansi_plain_mode_does_not(self):
        snap = _snapshot()
        assert "\x1b[1m" in render_dashboard(snap, color=True)
        assert "\x1b" not in render_dashboard(snap, color=False)

    def test_empty_snapshot_renders(self):
        text = render_dashboard({}, color=False)
        assert "repro top" in text

    def test_registry_footer_names_the_registered_run(self):
        snap = _snapshot()
        snap["registry"] = {"run_id": "rdeadbeef0123",
                            "root": ".repro/runs",
                            "runs_total": 7}
        text = render_dashboard(snap, color=False)
        assert "registered:" in text
        assert "rdeadbeef0123" in text
        assert ".repro/runs" in text and "7 runs" in text
        assert "repro runs show rdeadbeef0123" in text

    def test_no_registry_event_means_no_footer(self):
        assert "registered:" not in render_dashboard(_snapshot(),
                                                     color=False)
        snap = _snapshot()
        snap["registry"] = {}        # event seen but empty: still silent
        assert "registered:" not in render_dashboard(snap, color=False)


class TestSources:
    @pytest.mark.parametrize("endpoint,expected", [
        ("localhost:9464", "http://localhost:9464"),
        ("http://localhost:9464/", "http://localhost:9464"),
        ("http://10.0.0.2:9000/runz", "http://10.0.0.2:9000"),
        ("https://host:1/runz", "https://host:1"),
    ])
    def test_http_source_normalizes_endpoint(self, endpoint, expected):
        assert HttpSource(endpoint).endpoint == expected


class TestFlightParity:
    def test_flight_source_replays_the_run(self, record_path):
        source = FlightSource(record_path)
        snap = source.snapshot()
        assert snap["done"]
        assert snap["frames_seen"] == 3
        assert snap["series"]["pose_error_m"]

    def test_headline_parity_with_report(self, record_path):
        """The live dashboard and `repro report` print the same headline
        strings for the same run — byte-identical ATE / map-size /
        iteration lines."""
        log = read_flight_record(record_path)
        report = render_report(log)
        dashboard = render_dashboard(FlightSource(record_path).snapshot(),
                                     color=False)
        summary = log.summary
        ate = summary["ate"]
        headlines = [
            # The report prefixes this with "**ATE rmse**: ", the
            # dashboard with "ATE rmse " — the formatted numbers are the
            # shared, byte-identical part.
            (f"{ate.get('rmse', 0) * 100:.2f} cm "
             f"(median {ate.get('median', 0) * 100:.2f} cm, "
             f"max {ate.get('max', 0) * 100:.2f} cm)"),
            (f"{summary['final_gaussians']} Gaussians after "
             f"{summary.get('mapping_invocations', '?')} mapping "
             f"invocations"),
            f"{summary['tracking_iterations']} iterations total",
        ]
        for line in headlines:
            assert line in report
            assert line in dashboard

    def test_final_runz_matches_flight_replay(self, tmp_path, monkeypatch):
        """One run served live and recorded: the last /runz before the
        endpoint closes equals the flight record's replay on every key but
        the registry footer, which only the live run gets."""
        captured = {}
        stop = TelemetryHTTPServer.stop

        def scrape_then_stop(server):
            with urlopen(f"{server.url}/runz", timeout=5.0) as resp:
                captured["runz"] = json.loads(resp.read().decode("utf-8"))
            return stop(server)

        monkeypatch.setattr(TelemetryHTTPServer, "stop", scrape_then_stop)
        path = str(tmp_path / "run.jsonl")
        assert main(["-q", "slam", "--frames", "3", "--width", "24",
                     "--height", "18", "--tracking-tile", "8",
                     "--serve-telemetry", "0", "--flight-record", path,
                     "--registry", str(tmp_path / "reg")]) == 0
        live = captured["runz"]
        replay = json.loads(json.dumps(FlightSource(path).snapshot()))
        assert live.pop("registry")["runs_total"] == 1
        assert replay.pop("registry") is None
        assert live == replay


class TestRunTop:
    def test_once_renders_single_snapshot(self, record_path, tmp_path):
        import io

        out = io.StringIO()
        snap = run_top(FlightSource(record_path), once=True, color=False,
                       out=out)
        text = out.getvalue()
        assert snap["done"]
        assert text.count("repro top") == 1
        assert "\x1b" not in text

    def test_loop_stops_when_done(self, record_path):
        import io

        out = io.StringIO()
        snap = run_top(FlightSource(record_path), interval=0.0, color=False,
                       out=out, max_iterations=10)
        assert snap["done"]
        assert out.getvalue().count("repro top") == 1

    def test_loop_respects_max_iterations(self):
        import io

        class NeverDone:
            def snapshot(self):
                return {"done": False}

            def close(self):
                self.closed = True

        source = NeverDone()
        out = io.StringIO()
        run_top(source, interval=0.0, color=False, out=out, max_iterations=3)
        assert out.getvalue().count("repro top") == 3
        assert source.closed


class TestTopCommand:
    def test_once_from_flight(self, record_path, capsys):
        main(["top", "--once", "--from-flight", record_path, "--no-color"])
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "ATE rmse" in out
        assert "\x1b" not in out

    def test_requires_exactly_one_source(self, record_path):
        with pytest.raises(SystemExit):
            main(["top"])
        with pytest.raises(SystemExit):
            main(["top", "--endpoint", "localhost:9464",
                  "--from-flight", record_path])

    def test_missing_flight_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["top", "--once", "--from-flight",
                  str(tmp_path / "nope.jsonl")])

    def test_against_live_server(self, record_path):
        """End-to-end: a real exporter serving a replayed run feeds the
        HttpSource the CLI would build for --endpoint."""
        from repro.obs.telemetry import TelemetryConfig

        server = TelemetryHTTPServer(TelemetryConfig(port=0))
        server.start()
        try:
            log = read_flight_record(record_path)
            server.aggregator.consume("header", log.header)
            for frame in log.frames:
                server.aggregator.consume("frame", frame)
            server.aggregator.consume("summary", log.summary)
            import io

            out = io.StringIO()
            snap = run_top(HttpSource(server.url), once=True, color=False,
                           out=out)
            assert snap["done"]
            assert "ATE rmse" in out.getvalue()
        finally:
            server.stop()
