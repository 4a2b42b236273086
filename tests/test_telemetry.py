"""Live telemetry: the run aggregator, the streamer's bounded queue,
newline-JSON streaming, both as run observers, and the live ``/runz``
against a flight record's replay."""

import json
import socket
import threading
import time

from urllib.request import urlopen

import pytest

from repro.cli import main
from repro.obs import telemetry
from repro.obs.flight import read_flight_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.promexport import TelemetryHTTPServer
from repro.obs.telemetry import (
    RunAggregator,
    TelemetryConfig,
    TelemetryStreamer,
)


def _lines(path):
    return [json.loads(line) for line in open(path).read().splitlines()]


def _record(i):
    """A frame record with every field the aggregator's gauges read."""
    return {"type": "frame", "frame": i, "gaussians": 100 + i,
            "pose_error_m": 0.01, "cache": {"hit_rate": 0.0},
            "wall_time_s": 0.1}


class TestStreamQueue:
    """The streamer's bounded, drop-oldest queue: what a slow sink costs
    the run (nothing) and what it costs the stream (counted drops)."""

    def test_sequence_numbers_are_monotonic_across_kinds(self, tmp_path):
        target = str(tmp_path / "s.jsonl")
        streamer = TelemetryStreamer(target).start(background=False)
        for i in range(5):
            streamer.consume("frame" if i % 2 else "metrics", {"i": i})
        streamer.stop()
        assert [line["seq"] for line in _lines(target)] == [1, 2, 3, 4, 5]

    def test_full_ring_drops_oldest_and_counts(self, tmp_path):
        target = str(tmp_path / "s.jsonl")
        streamer = TelemetryStreamer(target, maxlen=3).start(
            background=False)
        for i in range(10):
            streamer.consume("frame", {"i": i})
        assert streamer.queue_dropped == 7
        assert streamer.delivered == 10
        stats = streamer.stop()
        assert stats["lines"] == 3 and stats["dropped"] == 7
        assert [line["data"]["i"] for line in _lines(target)] == [7, 8, 9]

    def test_slow_subscriber_never_blocks_others(self, monkeypatch):
        """A sink that stops accepting writes never stalls the run: the
        events keep queueing (oldest dropped) and the observer next to the
        streamer sees every one."""
        release = threading.Event()

        class StuckSink:
            def write(self, text):
                release.wait(10.0)

            def flush(self):
                pass

            def close(self):
                pass

        monkeypatch.setattr(telemetry, "_open_stream_sink",
                            lambda target: StuckSink())
        slow = TelemetryStreamer("stuck", maxlen=1, interval=0.001).start()
        other = RunAggregator(gauges=MetricsRegistry())
        start = time.perf_counter()
        try:
            for i in range(20):
                for observer in (slow, other):
                    observer.on_frame(_record(i), {})
            elapsed = time.perf_counter() - start
        finally:
            release.set()
        stats = slow.stop()
        assert elapsed < 5.0
        assert other.frames_seen == 20
        assert slow.delivered == 20
        # At most one event in the stuck write plus one queued survive.
        assert slow.queue_dropped >= 18
        assert stats["lines"] + stats["dropped"] == 20

    def test_concurrent_publishers_lose_nothing(self, tmp_path):
        target = str(tmp_path / "s.jsonl")
        streamer = TelemetryStreamer(target, maxlen=10_000).start(
            background=False)

        def blast(kind):
            for i in range(500):
                streamer.consume(kind, {"i": i})

        threads = [threading.Thread(target=blast, args=(f"k{t}",))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = streamer.stop()
        assert stats["lines"] == 2000 and stats["dropped"] == 0
        assert [line["seq"] for line in _lines(target)] == list(
            range(1, 2001))


class TestTelemetryConfig:
    def test_defaults(self):
        cfg = TelemetryConfig()
        assert cfg.port == telemetry.DEFAULT_PORT
        assert cfg.host == "127.0.0.1"
        assert cfg.series_len == 120

    def test_rejects_nonpositive_ring_and_series(self):
        with pytest.raises(ValueError):
            TelemetryStreamer("unused", maxlen=0)
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


class TestStreamer:
    def test_streams_newline_json_to_file(self, tmp_path):
        target = str(tmp_path / "stream.jsonl")
        streamer = TelemetryStreamer(target)
        streamer.start(background=False)
        streamer.on_frame({"frame": 0}, {})
        streamer.on_summary({"frames": 1})
        assert streamer.pump() == 2
        stats = streamer.stop()
        assert stats["lines"] == 2 and stats["dropped"] == 0
        lines = _lines(target)
        assert [l["kind"] for l in lines] == ["frame", "summary"]
        assert lines[0]["data"] == {"frame": 0}
        assert lines[0]["seq"] == 1 and lines[0]["ts"] > 0

    def test_file_target_appends_across_streamers(self, tmp_path):
        target = str(tmp_path / "stream.jsonl")
        for i in range(2):
            streamer = TelemetryStreamer(target)
            streamer.start(background=False)
            streamer.consume("frame", {"run": i})
            streamer.pump()
            streamer.stop()
        assert len(open(target).read().splitlines()) == 2

    def test_stats_payload_is_json_ready(self, tmp_path):
        streamer = TelemetryStreamer(str(tmp_path / "s.jsonl"), maxlen=4)
        streamer.start(background=False)
        for i in range(6):
            streamer.consume("frame", {"i": i})
        stats = streamer.stop()
        json.dumps(stats)
        assert stats == {"target": str(tmp_path / "s.jsonl"), "lines": 4,
                         "dropped": 2, "error": None}

    def test_streams_over_tcp(self, tmp_path):
        received = []
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()

        def accept():
            conn, _ = server.accept()
            with conn, conn.makefile("r") as f:
                for line in f:
                    received.append(json.loads(line))

        thread = threading.Thread(target=accept, daemon=True)
        thread.start()
        streamer = TelemetryStreamer(f"tcp://{host}:{port}")
        streamer.start(background=False)
        streamer.consume("frame", {"frame": 7})
        streamer.pump()
        streamer.stop()
        thread.join(timeout=5.0)
        server.close()
        assert received == [
            {"seq": 1, "ts": received[0]["ts"], "kind": "frame",
             "data": {"frame": 7}}]

    def test_bad_tcp_target_rejected(self):
        with pytest.raises(ValueError, match="tcp"):
            TelemetryStreamer("tcp://nohost").start(background=False)

    @staticmethod
    def _refused_port():
        """A port nothing is listening on (bound, then released)."""
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_tcp_connection_refused_at_start_is_nonfatal(self):
        """A dead collector must not take the run down: the streamer
        starts failed, the run proceeds, and every event is accounted
        for in the drop counter."""
        port = self._refused_port()
        streamer = TelemetryStreamer(f"tcp://127.0.0.1:{port}")
        streamer.start(background=False)
        assert streamer.failed
        assert streamer.error is not None
        for i in range(3):
            streamer.consume("frame", {"frame": i})
        assert streamer.pump() == 0
        stats = streamer.stop()
        assert stats["lines"] == 0
        assert stats["dropped"] == 3
        assert stats["error"] is not None
        assert streamer.lines_written + streamer.dropped == streamer.delivered

    def test_strict_start_raises_on_refused_connection(self):
        port = self._refused_port()
        with pytest.raises(OSError):
            TelemetryStreamer(f"tcp://127.0.0.1:{port}").start(
                background=False, strict=True)

    def test_tcp_peer_disconnect_mid_stream_counts_drops(self):
        """A collector dying mid-run marks the streamer failed and the
        lines_written + dropped accounting stays exact."""
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()
        first_line = []

        def accept_then_reset():
            conn, _ = server.accept()
            first_line.append(conn.makefile("r").readline())
            # SO_LINGER zero: close sends RST so the client's next
            # write fails promptly instead of buffering forever.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            __import__("struct").pack("ii", 1, 0))
            conn.close()

        thread = threading.Thread(target=accept_then_reset, daemon=True)
        thread.start()
        streamer = TelemetryStreamer(f"tcp://{host}:{port}")
        streamer.start(background=False)
        assert not streamer.failed
        streamer.consume("frame", {"frame": 0})
        assert streamer.pump() == 1
        thread.join(timeout=5.0)
        server.close()
        # Keep streaming until a write trips over the dead peer (the
        # kernel may buffer a few sends before surfacing the RST).
        deadline = time.time() + 10.0
        i = 1
        while not streamer.failed and time.time() < deadline:
            streamer.consume("frame", {"frame": i})
            streamer.pump()
            i += 1
            time.sleep(0.01)
        assert streamer.failed, "peer disconnect never surfaced"
        stats = streamer.stop()
        assert stats["error"] is not None
        assert stats["dropped"] > 0
        # Every queued event is either written or counted dropped.
        assert stats["lines"] + stats["dropped"] == streamer.delivered
        assert json.loads(first_line[0])["data"] == {"frame": 0}

    def test_background_pump_drains_on_interval(self, tmp_path):
        target = str(tmp_path / "bg.jsonl")
        streamer = TelemetryStreamer(target, interval=0.01)
        streamer.start()
        streamer.consume("frame", {"frame": 0})
        for _ in range(200):
            if streamer.lines_written:
                break
            time.sleep(0.01)
        stats = streamer.stop()
        assert stats["lines"] == 1
