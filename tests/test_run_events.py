"""One run-event stream: every observer of ``SLAMSystem.run`` sees the same
header/frame/summary records, alerts reach live consumers once, and an
unobserved run builds nothing."""

import json

import numpy as np
import pytest

from repro.core import SplatonicConfig
from repro.datasets import make_replica_sequence
from repro.metrics.ate import ate_rmse
from repro.obs import health, telemetry
from repro.obs.flight import FlightRecorder, read_flight_record
from repro.obs.health import (HealthConfig, HealthError, HealthMonitor,
                              get_monitor)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import diff_runs
from repro.obs.runsdb import RunRegistry, flight_metrics, ingest_slam_run
from repro.obs.telemetry import RunAggregator
from repro.slam import SLAMSystem
from repro.slam.tracker import Tracker


@pytest.fixture(scope="module")
def sequence():
    return make_replica_sequence("room0", n_frames=6, width=32, height=24,
                                 surface_density=10)


@pytest.fixture
def live():
    """A subscription to the process-wide bus, enabled for one test."""
    bus = telemetry.bus
    bus.enable()
    sub = bus.subscribe(maxlen=4096)
    try:
        yield sub
    finally:
        bus.unsubscribe(sub)
        bus.disable()
        bus.reset()


def make_system():
    return SLAMSystem("splatam", mode="sparse",
                      splatonic_config=SplatonicConfig(tracking_tile=8))


def quiet_monitor(**overrides) -> HealthMonitor:
    """A monitor whose alerts do not depend on wall time."""
    return HealthMonitor(HealthConfig(frame_time_factor=0, **overrides),
                         registry=MetricsRegistry())


class OddFrameMonitor(HealthMonitor):
    """Raises one alert on every odd frame."""

    def observe_frame(self, record):
        if record["frame"] % 2:
            self._alert("test", f"odd frame {record['frame']}",
                        frame=record["frame"])
        return super().observe_frame(record)


def run_events(sub):
    return [(kind, payload) for _, _, kind, payload in sub.drain()
            if kind in ("header", "frame", "summary")]


class TestOneRunManySinks:
    def test_flight_registry_and_bus_see_identical_records(
            self, sequence, tmp_path, live):
        path = str(tmp_path / "run.jsonl")
        flight = FlightRecorder()
        flight.enable(path)
        registry = RunRegistry(str(tmp_path / "reg"))
        result = make_system().run(
            sequence, n_frames=4,
            observers=[flight, registry, quiet_monitor()])
        flight.disable()

        with open(path) as f:
            on_disk = [json.loads(line) for line in f]
        stored = registry.read_artifact(
            registry.get(result.run_id), "flight").decode().splitlines()
        published = run_events(live)
        assert [r["type"] for r in on_disk] == (
            ["header"] + ["frame"] * 4 + ["summary"])
        assert [json.loads(line) for line in stored] == on_disk
        assert [kind for kind, _ in published] == [r["type"]
                                                   for r in on_disk]
        assert [payload for _, payload in published] == on_disk
        # Ingesting the flight file later keys the run the same way.
        again = ingest_slam_run(RunRegistry(str(tmp_path / "again")), on_disk)
        assert again["key"]["config_hash"] == registry.get(
            result.run_id)["key"]["config_hash"]

    def test_unobserved_run_builds_no_record_and_is_passive(
            self, sequence, monkeypatch):
        from repro.obs import flight as obs_flight
        from repro.slam.mapper import Mapper

        curves = []
        for cls, name in ((Tracker, "track_frame"), (Mapper, "map_frame")):
            original = getattr(cls, name)

            def spy(self, *args, _original=original, **kwargs):
                curves.append(kwargs.get("collect_curve", False))
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, spy)
        built = []
        monkeypatch.setattr(obs_flight, "to_plain", built.append)
        monkeypatch.setattr(obs_flight, "run_header", built.append)
        bare = make_system().run(sequence, n_frames=4)
        assert built == [] and curves and not any(curves)
        monkeypatch.undo()

        observed = make_system().run(sequence, n_frames=4,
                                     observers=[FlightRecorder()])
        assert np.array_equal(bare.est_trajectory, observed.est_trajectory)
        assert len(bare.cloud) == len(observed.cloud)
        assert all(bare.stage_stats[s].as_dict()
                   == observed.stage_stats[s].as_dict()
                   for s in SLAMSystem.STAGES)


class TestAlerts:
    def test_live_alert_count_matches_monitor_and_replay(
            self, sequence, live):
        flight = FlightRecorder()
        flight.enable()
        monitor = OddFrameMonitor(HealthConfig(frame_time_factor=0),
                                  registry=MetricsRegistry())
        make_system().run(sequence, n_frames=6, observers=[monitor, flight])
        assert len(monitor.alerts) == 3

        watched = RunAggregator()
        live.drain_into(watched.consume_event)
        replay = RunAggregator()
        for record in flight.records:
            replay.consume(record["type"], record)
        assert watched.alert_count == 3
        assert replay.alert_count == 3
        assert telemetry.bus.published("alert") == 0

    def test_alert_that_aborts_the_run_reaches_the_bus(
            self, sequence, live):
        monitor = OddFrameMonitor(HealthConfig(on_alert="raise"),
                                  registry=MetricsRegistry())
        with pytest.raises(HealthError):
            make_system().run(sequence, n_frames=4, observers=[monitor])
        watched = RunAggregator()
        live.drain_into(watched.consume_event)
        assert watched.alert_count == 1
        assert telemetry.bus.latest("alert")["frame"] == 1

    @pytest.mark.parametrize("attach", [True, False])
    def test_guard_alerts_land_in_the_observing_monitor(
            self, sequence, monkeypatch, attach):
        original = Tracker.track_frame

        def poisoned(self, *args, **kwargs):
            get_monitor().non_finite("tracking loss/gradient")
            return original(self, *args, **kwargs)
        monkeypatch.setattr(Tracker, "track_frame", poisoned)
        default = HealthMonitor(registry=MetricsRegistry())
        monkeypatch.setattr(health, "_monitor", default)
        monitor = quiet_monitor()
        flight = FlightRecorder()
        flight.enable()
        make_system().run(sequence, n_frames=3,
                          observers=[monitor, flight] if attach else [])
        if attach:
            assert len(monitor.alerts) == 2
            assert default.alerts == []
            assert [len(r.get("alerts") or []) for r in flight.records
                    if r["type"] == "frame"] == [0, 1, 1]
        else:
            assert len(default.alerts) == 2
            assert monitor.alerts == []


class TestRecordFields:
    @pytest.fixture(scope="class")
    def log(self, sequence, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("events") / "run.jsonl")
        flight = FlightRecorder()
        flight.enable(path)
        result = make_system().run(sequence, n_frames=4,
                                   observers=[flight, quiet_monitor()])
        flight.disable()
        return result, read_flight_record(path)

    def test_frames_split_wall_time_by_stage(self, log):
        _, flight_log = log
        mapping = flight_log.series("mapping.wall_time_s")
        tracking = flight_log.series("tracking.wall_time_s")
        assert tracking[0] is None and mapping[0] > 0
        assert all(t > 0 for t in tracking[1:])
        for frame, track, map_ in zip(flight_log.frames, tracking, mapping):
            spent = (track or 0.0) + (map_ or 0.0)
            assert spent <= frame["wall_time_s"]

    def test_stage_wall_times_are_not_diff_channels(self, log):
        _, flight_log = log
        other = read_flight_record(flight_log.path)
        for frame in other.frames:
            for stage in ("tracking", "mapping"):
                if frame[stage] is not None:
                    frame[stage]["wall_time_s"] += 1.0
        assert not diff_runs(flight_log, other).diverged

    def test_summary_carries_aligned_and_unaligned_ate(self, log):
        result, flight_log = log
        aligned = result.ate()
        unaligned = ate_rmse(result.est_trajectory, result.gt_trajectory,
                             align=False)
        assert flight_log.summary["ate"]["per_frame"] == list(
            aligned.per_frame)
        assert flight_log.summary["ate_unaligned"] == {
            "rmse": unaligned.rmse, "mean": unaligned.mean,
            "median": unaligned.median, "max": unaligned.max}

    def test_result_ate_unaligned_matches_summary(self, log):
        result, flight_log = log
        unaligned = result.ate(align=False)
        assert unaligned == ate_rmse(result.est_trajectory,
                                     result.gt_trajectory, align=False)
        assert flight_log.summary["ate_unaligned"] == {
            "rmse": unaligned.rmse, "mean": unaligned.mean,
            "median": unaligned.median, "max": unaligned.max}
        assert unaligned.rmse != result.ate().rmse

    def test_registry_metrics_cover_the_new_fields(self, log):
        result, flight_log = log
        metrics = flight_metrics(flight_log)
        assert metrics["slam.ate_unaligned.rmse_m"] == pytest.approx(
            ate_rmse(result.est_trajectory, result.gt_trajectory,
                     align=False).rmse, rel=1e-12)
        tracking = [t for t in flight_log.series("tracking.wall_time_s")
                    if t is not None]
        assert metrics["slam.wall.tracking_mean_s"] == pytest.approx(
            sum(tracking) / len(tracking))
        assert metrics["slam.wall.mapping_mean_s"] > 0
