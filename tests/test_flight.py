"""Flight recorder: schema round-trip, no-op discipline, ATE fidelity."""

import json
import math

import numpy as np
import pytest

from repro.core import SplatonicConfig
from repro.datasets import make_replica_sequence
from repro.metrics.ate import ate_rmse
from repro.obs.flight import (FLIGHT_SCHEMA_VERSION, FlightRecorder,
                              parse_flight_records, read_flight_record,
                              to_plain)
from repro.obs.health import HealthMonitor
from repro.slam import SLAMSystem


@pytest.fixture(scope="module")
def sequence():
    return make_replica_sequence("room0", n_frames=4, width=32, height=24,
                                 surface_density=10)


@pytest.fixture(scope="module")
def recorded_run(sequence, tmp_path_factory):
    """One 4-frame run with the recorder on: (result, monitor, jsonl path)."""
    path = str(tmp_path_factory.mktemp("flight") / "run.jsonl")
    rec = FlightRecorder()
    rec.enable(path)
    mon = HealthMonitor()
    result = SLAMSystem(
        "splatam", mode="sparse",
        splatonic_config=SplatonicConfig(tracking_tile=8)).run(
            sequence, observers=[rec, mon])
    rec.disable()
    return result, mon, path


class TestToPlain:
    def test_passthrough_scalars(self):
        assert to_plain(3) == 3
        assert to_plain(0.5) == 0.5
        assert to_plain(True) is True
        assert to_plain(None) is None
        assert to_plain("x") == "x"

    def test_numpy_values_become_json_native(self):
        plain = to_plain({"a": np.float64(1.5), "b": np.arange(3),
                          "c": [np.int32(2)], "d": np.eye(2)})
        assert plain == {"a": 1.5, "b": [0, 1, 2], "c": [2],
                         "d": [[1.0, 0.0], [0.0, 1.0]]}
        json.dumps(plain)  # must be serializable as-is

    def test_unknown_objects_stringified(self):
        class Odd:
            def __repr__(self):
                return "<odd>"
        assert to_plain(Odd()) == "<odd>"


class TestRecorderLifecycle:
    def test_disabled_emit_is_noop(self):
        rec = FlightRecorder()
        assert not rec.enabled
        rec.emit({"type": "frame", "frame": 0})
        rec.begin_run(algorithm="splatam")
        assert rec.records == []

    def test_enable_disable_roundtrip(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        rec = FlightRecorder()
        rec.enable(path)
        rec.begin_run(algorithm="x", mode="sparse")
        rec.emit({"type": "frame", "frame": 0})
        rec.disable()
        assert not rec.enabled
        log = read_flight_record(path)
        assert log.header["schema_version"] == FLIGHT_SCHEMA_VERSION
        assert log.header["algorithm"] == "x"
        assert log.num_frames == 1

    def test_record_to_restores_state(self, tmp_path):
        rec = FlightRecorder()
        with rec.record_to(str(tmp_path / "r.jsonl")):
            assert rec.enabled
            rec.emit({"type": "frame", "frame": 0})
        assert not rec.enabled
        assert len(rec.records) == 1

    def test_header_carries_environment_fingerprint(self, tmp_path):
        rec = FlightRecorder()
        rec.enable(str(tmp_path / "r.jsonl"))
        rec.begin_run()
        rec.disable()
        env = rec.records[0]["environment"]
        assert "python" in env and "numpy" in env

    def test_write_jsonl_exports_accumulated(self, tmp_path):
        rec = FlightRecorder()
        rec.enable()  # in-memory only
        rec.begin_run(algorithm="x")
        rec.emit({"type": "frame", "frame": 0})
        out = str(tmp_path / "dump.jsonl")
        assert rec.write_jsonl(out) == 2
        assert read_flight_record(out).num_frames == 1


class TestParsing:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_flight_records([])

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_flight_records([{"type": "frame", "frame": 0}])

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            parse_flight_records([{"type": "header", "schema_version": 999}])

    def test_out_of_order_frames_rejected(self):
        records = [
            {"type": "header", "schema_version": FLIGHT_SCHEMA_VERSION},
            {"type": "frame", "frame": 1},
            {"type": "frame", "frame": 0},
        ]
        with pytest.raises(ValueError, match="order"):
            parse_flight_records(records)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header", "schema_version": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_flight_record(str(path))


class TestRunRoundTrip:
    def test_one_record_per_frame_plus_header_and_summary(self, sequence,
                                                          recorded_run):
        _, _, path = recorded_run
        log = read_flight_record(path)
        assert log.num_frames == len(sequence)
        assert [f["frame"] for f in log.frames] == list(range(len(sequence)))
        assert log.summary is not None
        assert log.header["algorithm"] == "splatam"
        assert log.header["mode"] == "sparse"
        assert log.header["width"] == 32 and log.header["height"] == 24

    def test_stream_is_valid_jsonl(self, recorded_run):
        _, _, path = recorded_run
        with open(path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        assert lines[0]["type"] == "header"
        assert lines[-1]["type"] == "summary"
        assert all(r["type"] == "frame" for r in lines[1:-1])

    def test_summary_ate_matches_result(self, recorded_run):
        result, _, path = recorded_run
        log = read_flight_record(path)
        ate = result.ate()
        assert log.summary["ate"]["rmse"] == pytest.approx(ate.rmse,
                                                           rel=1e-12)
        per_frame = log.summary["ate"]["per_frame"]
        assert len(per_frame) == log.num_frames
        rmse = math.sqrt(sum(e * e for e in per_frame) / len(per_frame))
        assert rmse == pytest.approx(ate.rmse, rel=1e-12)

    def test_frame_records_carry_the_advertised_channels(self, recorded_run):
        _, _, path = recorded_run
        log = read_flight_record(path)
        tracked = log.frames[1]  # frame 0 is bootstrap-only
        assert tracked["tracking"]["iterations"] >= 1
        assert tracked["tracking"]["sampled_pixels"] > 0
        curve = tracked["tracking"]["loss_curve"]
        assert len(curve) == tracked["tracking"]["iterations"]
        assert tracked["gaussians"] > 0
        assert 0.0 <= tracked["alpha"]["rejection_rate"] <= 1.0
        assert "keyframe" in tracked and "counters" in tracked
        mapped = log.frames[0]  # bootstrap mapping
        assert mapped["mapping"]["invoked"]
        assert "unseen_coverage" in mapped["mapping"]["sampling"]

    def test_series_accessor(self, recorded_run):
        _, _, path = recorded_run
        log = read_flight_record(path)
        gaussians = log.series("gaussians")
        assert len(gaussians) == log.num_frames
        assert all(isinstance(g, int) for g in gaussians)
        # Missing dotted paths yield None, not KeyError.
        assert log.series("no.such.path") == [None] * log.num_frames

    def test_healthy_run_raises_no_alerts(self, recorded_run):
        _, monitor, path = recorded_run
        assert monitor.alerts == []
        assert read_flight_record(path).alerts() == []

    def test_run_without_recorder_emits_nothing(self, sequence,
                                                monkeypatch):
        from repro.obs import flight as obs_flight
        emitted = []
        monkeypatch.setattr(obs_flight, "to_plain", emitted.append)
        monkeypatch.setattr(obs_flight, "run_header", emitted.append)
        SLAMSystem(
            "splatam", mode="sparse",
            splatonic_config=SplatonicConfig(tracking_tile=8)).run(sequence)
        assert emitted == []


class TestAlignedFrameErrors:
    def test_identity_trajectories_have_zero_error(self):
        rng = np.random.default_rng(0)
        traj = np.tile(np.eye(4), (5, 1, 1))
        traj[:, :3, 3] = rng.normal(size=(5, 3))
        errors = ate_rmse(traj, traj).per_frame
        assert errors == pytest.approx([0.0] * 5, abs=1e-12)

    def test_reproduces_ate_rmse(self):
        rng = np.random.default_rng(1)
        gt = np.tile(np.eye(4), (6, 1, 1))
        gt[:, :3, 3] = rng.normal(size=(6, 3))
        est = gt.copy()
        est[:, :3, 3] += 0.05 * rng.normal(size=(6, 3))
        errors = ate_rmse(est, gt).per_frame
        rmse = math.sqrt(sum(e * e for e in errors) / len(errors))
        assert rmse == pytest.approx(ate_rmse(est, gt).rmse, rel=1e-12)
