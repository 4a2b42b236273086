"""Telemetry bus: pub/sub semantics, ring backpressure, aggregation,
streaming, the producer publish hooks, and the disabled-==-free
guarantee."""

import json
import socket
import threading
import tracemalloc

import pytest

from repro.obs import telemetry
from repro.obs.telemetry import (
    RunAggregator,
    Subscription,
    TelemetryBus,
    TelemetryConfig,
    TelemetryStreamer,
)


@pytest.fixture
def global_bus():
    """The process-wide bus, enabled for one test and always restored."""
    telemetry.bus.enable()
    try:
        yield telemetry.bus
    finally:
        telemetry.bus.disable()
        telemetry.bus.reset()


class TestBus:
    def test_disabled_publish_is_a_noop(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        bus.publish("frame", {"frame": 0})
        assert len(sub) == 0
        assert bus.published() == 0
        assert bus.latest("frame") is None

    def test_publish_fans_out_to_matching_subscribers(self):
        bus = TelemetryBus(enabled=True)
        everything = bus.subscribe()
        frames_only = bus.subscribe(kinds=("frame",))
        bus.publish("frame", {"frame": 0})
        bus.publish("alert", {"monitor": "x"})
        assert len(everything) == 2
        assert len(frames_only) == 1
        seq, ts, kind, payload = frames_only.drain()[0]
        assert (seq, kind, payload) == (1, "frame", {"frame": 0})
        assert ts > 0

    def test_sequence_numbers_are_monotonic_across_kinds(self):
        bus = TelemetryBus(enabled=True)
        sub = bus.subscribe()
        for i in range(5):
            bus.publish("frame" if i % 2 else "metrics", {"i": i})
        assert [e[0] for e in sub.drain()] == [1, 2, 3, 4, 5]

    def test_full_ring_drops_oldest_and_counts(self):
        bus = TelemetryBus(enabled=True)
        sub = bus.subscribe(maxlen=3)
        for i in range(10):
            bus.publish("frame", {"i": i})
        assert sub.dropped == 7
        assert sub.delivered == 10
        assert [e[3]["i"] for e in sub.drain()] == [7, 8, 9]
        assert bus.dropped() == 7

    def test_slow_subscriber_never_blocks_others(self):
        bus = TelemetryBus(enabled=True)
        slow = bus.subscribe(maxlen=1)
        fast = bus.subscribe(maxlen=100)
        for i in range(20):
            bus.publish("frame", {"i": i})
        assert len(fast) == 20 and fast.dropped == 0
        assert len(slow) == 1 and slow.dropped == 19

    def test_latest_retained_per_kind_for_late_subscribers(self):
        bus = TelemetryBus(enabled=True)
        bus.publish("header", {"frames": 9})
        bus.publish("frame", {"frame": 0})
        bus.publish("frame", {"frame": 1})
        assert bus.latest("header") == {"frames": 9}
        assert bus.latest("frame") == {"frame": 1}
        assert bus.published("frame") == 2
        assert bus.published() == 3

    def test_unsubscribe_stops_delivery(self):
        bus = TelemetryBus(enabled=True)
        sub = bus.subscribe()
        bus.unsubscribe(sub)
        bus.publish("frame", {})
        assert len(sub) == 0
        assert bus.subscriber_count == 0
        bus.unsubscribe(sub)  # idempotent

    def test_enable_resets_counters_but_keeps_subscriptions(self):
        bus = TelemetryBus(enabled=True)
        sub = bus.subscribe()
        bus.publish("frame", {})
        bus.disable()
        bus.enable()
        assert bus.published() == 0
        assert bus.latest("frame") is None
        bus.publish("frame", {"i": 1})
        sub.drain()  # the pre-reset event was still queued
        assert bus.subscriber_count == 1

    def test_stats_payload_is_json_ready(self):
        bus = TelemetryBus(enabled=True)
        bus.subscribe(name="watcher", maxlen=4)
        for i in range(6):
            bus.publish("frame", {"i": i})
        stats = bus.stats()
        json.dumps(stats)
        assert stats["published"] == 6
        assert stats["published_by_kind"] == {"frame": 6}
        assert stats["dropped"] == 2
        assert stats["subscribers"][0]["name"] == "watcher"

    def test_concurrent_publishers_lose_nothing(self):
        bus = TelemetryBus(enabled=True)
        sub = bus.subscribe(maxlen=10_000)

        def blast(kind):
            for i in range(500):
                bus.publish(kind, {"i": i})

        threads = [threading.Thread(target=blast, args=(f"k{t}",))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert bus.published() == 2000
        events = sub.drain()
        assert len(events) == 2000
        assert [e[0] for e in events] == sorted(e[0] for e in events)


class TestTelemetryConfig:
    def test_defaults(self):
        cfg = TelemetryConfig()
        assert cfg.port == telemetry.DEFAULT_PORT
        assert cfg.ring == telemetry.DEFAULT_RING
        assert cfg.stream_target is None

    def test_rejects_nonpositive_ring_and_series(self):
        with pytest.raises(ValueError):
            TelemetryConfig(ring=0)
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

    def test_snapshot_is_json_ready(self):
        agg = RunAggregator()
        agg.consume("header", {"frames": 1})
        agg.consume("frame", self._frame(0))
        json.dumps(agg.snapshot())


class TestStreamer:
    def test_streams_newline_json_to_file(self, tmp_path):
        bus = TelemetryBus(enabled=True)
        target = str(tmp_path / "stream.jsonl")
        streamer = TelemetryStreamer(target, bus_=bus)
        streamer.start(background=False)
        bus.publish("frame", {"frame": 0})
        bus.publish("summary", {"frames": 1})
        assert streamer.pump() == 2
        stats = streamer.stop()
        assert stats["lines"] == 2 and stats["dropped"] == 0
        lines = [json.loads(l) for l in
                 open(target).read().splitlines()]
        assert [l["kind"] for l in lines] == ["frame", "summary"]
        assert lines[0]["data"] == {"frame": 0}
        assert lines[0]["seq"] == 1 and lines[0]["ts"] > 0

    def test_file_target_appends_across_streamers(self, tmp_path):
        bus = TelemetryBus(enabled=True)
        target = str(tmp_path / "stream.jsonl")
        for i in range(2):
            streamer = TelemetryStreamer(target, bus_=bus)
            streamer.start(background=False)
            bus.publish("frame", {"run": i})
            streamer.pump()
            streamer.stop()
        assert len(open(target).read().splitlines()) == 2

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
        bus = TelemetryBus(enabled=True)
        streamer = TelemetryStreamer(f"tcp://{host}:{port}", bus_=bus)
        streamer.start(background=False)
        bus.publish("frame", {"frame": 7})
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
        bus = TelemetryBus(enabled=True)
        port = self._refused_port()
        streamer = TelemetryStreamer(f"tcp://127.0.0.1:{port}", bus_=bus)
        streamer.start(background=False)
        assert streamer.failed
        assert streamer.error is not None
        for i in range(3):
            bus.publish("frame", {"frame": i})
        assert streamer.pump() == 0
        stats = streamer.stop()
        assert stats["lines"] == 0
        assert stats["dropped"] == 3
        assert stats["error"] is not None
        assert streamer.lines_written + streamer.dropped == bus.published()

    def test_strict_start_raises_on_refused_connection(self):
        port = self._refused_port()
        with pytest.raises(OSError):
            TelemetryStreamer(f"tcp://127.0.0.1:{port}").start(
                background=False, strict=True)

    def test_tcp_peer_disconnect_mid_stream_counts_drops(self):
        """A collector dying mid-run marks the streamer failed and the
        lines_written + dropped accounting stays exact."""
        import time

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
        bus = TelemetryBus(enabled=True)
        streamer = TelemetryStreamer(f"tcp://{host}:{port}", bus_=bus)
        streamer.start(background=False)
        assert not streamer.failed
        bus.publish("frame", {"frame": 0})
        assert streamer.pump() == 1
        thread.join(timeout=5.0)
        server.close()
        # Keep publishing until a write trips over the dead peer (the
        # kernel may buffer a few sends before surfacing the RST).
        deadline = time.time() + 10.0
        i = 1
        while not streamer.failed and time.time() < deadline:
            bus.publish("frame", {"frame": i})
            streamer.pump()
            i += 1
            time.sleep(0.01)
        assert streamer.failed, "peer disconnect never surfaced"
        stats = streamer.stop()
        assert stats["error"] is not None
        assert stats["dropped"] > 0
        # Every published event is either written or counted dropped.
        assert stats["lines"] + stats["dropped"] == bus.published()
        assert json.loads(first_line[0])["data"] == {"frame": 0}

    def test_background_pump_drains_on_interval(self, tmp_path):
        bus = TelemetryBus(enabled=True)
        target = str(tmp_path / "bg.jsonl")
        streamer = TelemetryStreamer(target, bus_=bus, interval=0.01)
        streamer.start()
        bus.publish("frame", {"frame": 0})
        for _ in range(200):
            if streamer.lines_written:
                break
            import time
            time.sleep(0.01)
        stats = streamer.stop()
        assert stats["lines"] == 1


class TestPublishHooks:
    """Every producer publishes onto the enabled global bus."""

    def test_bus_observer_publishes_run_events_by_type(self, global_bus):
        sub = global_bus.subscribe()
        global_bus.on_header({"type": "header", "frames": 1})
        global_bus.on_frame({"type": "frame", "frame": 0, "gaussians": 5,
                             "pose_error_m": 0.0,
                             "cache": {"hit_rate": 0.0}}, {})
        global_bus.on_summary({"type": "summary", "frames": 1})
        kinds = [e[2] for e in sub.drain()]
        global_bus.unsubscribe(sub)
        assert kinds == ["header", "frame", "metrics", "summary"]
        assert global_bus.latest("frame")["gaussians"] == 5
        assert global_bus.latest("metrics")["gauges"]["slam.gaussians"] == 5

    def test_flight_recorder_never_publishes(self, global_bus):
        from repro.obs.flight import FlightRecorder

        rec = FlightRecorder()
        rec.enable()
        rec.emit({"type": "frame", "frame": 0})
        assert global_bus.published() == 0

    def test_health_monitor_publishes_alerts(self, global_bus):
        from repro.obs.health import HealthConfig, HealthMonitor
        from repro.obs.metrics import MetricsRegistry

        monitor = HealthMonitor(HealthConfig(on_alert="warn"),
                                registry=MetricsRegistry())
        monitor.non_finite("tracking.loss", frame=3)
        events = [e for e in [global_bus.latest("alert")] if e]
        assert events and events[0]["monitor"] == "non_finite"
        assert events[0]["frame"] == 3

    def test_health_alert_published_even_when_raising(self, global_bus):
        from repro.obs.health import HealthConfig, HealthError, HealthMonitor
        from repro.obs.metrics import MetricsRegistry

        monitor = HealthMonitor(HealthConfig(on_alert="raise"),
                                registry=MetricsRegistry())
        with pytest.raises(HealthError):
            monitor.non_finite("tracking.loss", frame=1)
        assert global_bus.latest("alert")["monitor"] == "non_finite"

    def test_metrics_registry_publishes_snapshot(self, global_bus):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.inc("x.count", 3)
        assert reg.publish_snapshot() is True
        payload = global_bus.latest("metrics")
        assert payload["counters"]["x.count"] == 3

    def test_metrics_publish_noop_when_bus_disabled(self):
        from repro.obs.metrics import MetricsRegistry

        assert telemetry.bus.enabled is False
        assert MetricsRegistry().publish_snapshot() is False

    def test_tracer_publishes_span_events(self, global_bus):
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        tracer.enable()
        try:
            with tracer.span("slam.track", frame=2):
                pass
        finally:
            tracer.disable()
        span = global_bus.latest("span")
        assert span["name"] == "slam.track"
        assert span["dur_s"] >= 0
        assert span["attrs"] == {"frame": 2}


class TestDisabledBusIsFree:
    def test_disabled_publish_allocates_nothing(self):
        """The per-frame hot-path discipline: with the bus disabled, a
        publish call must not allocate (the payload guard lives at the
        call site; the bus itself is one attribute load + branch)."""
        bus = TelemetryBus()
        payload = {"frame": 0}
        bus.publish("frame", payload)  # warm up any lazy state
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(1000):
                bus.publish("frame", payload)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = after.compare_to(before, "lineno")
        here = [s for s in stats
                if s.traceback[0].filename == telemetry.__file__
                and s.size_diff > 0]
        assert not here, [str(s) for s in here]

    def test_hot_path_hooks_check_enabled_before_building_payloads(self):
        """Source-level guard: every producer publish hook sits behind a
        `bus.enabled` check so payload dicts are never built while the
        bus is off (the SLAM loop's run events included)."""
        import importlib
        import inspect

        for name in ("health", "metrics", "tracing"):
            # importlib, because ``from repro.obs import metrics`` binds
            # the registry instance that shadows the submodule name.
            module = importlib.import_module(f"repro.obs.{name}")
            source = inspect.getsource(module)
            assert "_bus.enabled" in source, name
        system = importlib.import_module("repro.slam.system")
        assert "bus.enabled" in inspect.getsource(system)
