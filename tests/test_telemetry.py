"""Live telemetry: the run aggregator as a run observer, and the live
``/runz`` against a flight record's replay."""

import json

from urllib.request import urlopen

import pytest

from repro.cli import main
from repro.obs import telemetry
from repro.obs.flight import read_flight_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.promexport import TelemetryHTTPServer
from repro.obs.telemetry import RunAggregator, TelemetryConfig


def _record(i):
    """A frame record with every field the aggregator's gauges read."""
    return {"type": "frame", "frame": i, "gaussians": 100 + i,
            "pose_error_m": 0.01, "cache": {"hit_rate": 0.0},
            "wall_time_s": 0.1}


class TestTelemetryConfig:
    def test_defaults(self):
        cfg = TelemetryConfig()
        assert cfg.port == telemetry.DEFAULT_PORT
        assert cfg.host == "127.0.0.1"
        assert cfg.series_len == 120

    def test_rejects_nonpositive_ring_and_series(self):
        with pytest.raises(ValueError):
            TelemetryConfig(series_len=-1)


class TestRunAggregator:
    def _frame(self, i, **overrides):
        record = {
            "type": "frame", "frame": i, "pose_error_m": 0.01 * (i + 1),
            "gaussians": 100 + i, "wall_time_s": 0.1,
            "tracking": {"final_loss": 0.5 / (i + 1), "iterations": 10},
            "alpha": {"rejection_rate": 0.4},
        }
        record.update(overrides)
        return record

    def test_folds_run_stream_into_snapshot(self):
        agg = RunAggregator()
        agg.consume("header", {"frames": 3, "algorithm": "splatam"})
        for i in range(3):
            agg.consume("frame", self._frame(i))
        snap = agg.snapshot()
        assert snap["frame"] == 2 and snap["frames_seen"] == 3
        assert snap["frames_total"] == 3
        assert not snap["done"]
        assert snap["series"]["pose_error_m"] == [0.01, 0.02, 0.03]
        assert snap["series"]["gaussians"] == [100, 101, 102]
        agg.consume("summary", {"frames": 3, "ate": {"rmse": 0.01}})
        assert agg.snapshot()["done"]

    def test_pose_rmse_matches_direct_computation(self):
        agg = RunAggregator()
        errors = [0.01, 0.03, 0.02]
        for i, err in enumerate(errors):
            agg.consume("frame", self._frame(i, pose_error_m=err))
        expected = (sum(e * e for e in errors) / len(errors)) ** 0.5
        assert agg.pose_rmse_so_far() == pytest.approx(expected)

    def test_series_are_bounded(self):
        agg = RunAggregator(series_len=4)
        for i in range(50):
            agg.consume("frame", self._frame(i))
        snap = agg.snapshot()
        assert len(snap["series"]["pose_error_m"]) == 4
        assert snap["frames_seen"] == 50

    def test_fps_prefers_recorded_wall_times(self):
        agg = RunAggregator()
        for i in range(4):
            agg.consume("frame", self._frame(i, wall_time_s=0.25))
        assert agg.fps() == pytest.approx(4.0)

    def test_fps_falls_back_to_event_timestamps(self):
        agg = RunAggregator()
        for i in range(3):
            agg.consume("frame", self._frame(i, wall_time_s=None),
                        ts=100.0 + i)
        assert agg.fps() == pytest.approx(1.0)

    def test_alert_ticker_is_bounded_and_counted(self):
        agg = RunAggregator(alerts_len=2)
        for i in range(5):
            agg.consume("alert", {"monitor": "m", "frame": i})
        snap = agg.snapshot()
        assert snap["alert_count"] == 5
        assert [a["frame"] for a in snap["alerts"]] == [3, 4]

    def test_frame_embedded_alerts_count_in_replay(self):
        agg = RunAggregator()
        agg.consume("frame", self._frame(
            0, alerts=[{"monitor": "pose_jump", "frame": 0}]))
        assert agg.alert_count == 1

    def test_unknown_kinds_are_ignored(self):
        agg = RunAggregator()
        agg.consume("span", {"name": "slam.track"})
        assert agg.frames_seen == 0

    def test_registry_event_lands_in_snapshot(self):
        agg = RunAggregator()
        assert agg.snapshot()["registry"] is None
        agg.consume("registry", {"run_id": "rdeadbeef0123", "seq": 4,
                                 "root": ".repro/runs", "runs_total": 4})
        snap = agg.snapshot()
        assert snap["registry"]["run_id"] == "rdeadbeef0123"
        assert snap["registry"]["runs_total"] == 4
        json.dumps(snap)

    def test_observer_counts_run_events_and_sets_slam_gauges(self):
        gauges = MetricsRegistry()
        agg = RunAggregator(gauges=gauges)
        agg.on_header({"type": "header", "frames": 1})
        agg.on_frame(_record(0), {})
        agg.consume("registry", {"run_id": "r0"})
        agg.on_summary({"type": "summary", "frames": 1})
        assert agg.run_events == 3
        assert agg.snapshot()["done"]
        assert gauges.gauges == {"slam.cache_hit_rate": 0.0,
                                 "slam.frame": 0.0,
                                 "slam.gaussians": 100.0,
                                 "slam.pose_error_m": 0.01}

    def test_snapshot_is_json_ready(self):
        agg = RunAggregator()
        agg.consume("header", {"frames": 1})
        agg.consume("frame", self._frame(0))
        json.dumps(agg.snapshot())


class TestFlightParity:
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
        log = read_flight_record(path)
        agg = RunAggregator()
        agg.consume("header", log.header)
        for frame in log.frames:
            agg.consume("frame", frame)
        agg.consume("summary", log.summary)
        replay = json.loads(json.dumps(agg.snapshot()))
        assert live.pop("registry")["runs_total"] == 1
        assert replay.pop("registry") is None
        assert live == replay
