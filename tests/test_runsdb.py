"""Run registry: append-only index, content-addressed artifacts,
metric extraction, ingestion paths, and the disabled-==-free wiring."""

import json
import os

import pytest

import repro.render.kernels
from repro.core import SplatonicConfig
from repro.datasets import make_replica_sequence
from repro.obs import runsdb
from repro.obs.runsdb import (
    REGISTRY_SCHEMA_VERSION,
    RunRegistry,
    config_hash,
    ingest_bench_payload,
    ingest_slam_run,
)
from repro.slam import SLAMSystem


@pytest.fixture(scope="module")
def sequence():
    return make_replica_sequence("room0", n_frames=4, width=32, height=24,
                                 surface_density=10)


def run_slam(sequence, tile=8, registry=None):
    return SLAMSystem(
        "splatam", mode="sparse",
        splatonic_config=SplatonicConfig(tracking_tile=tile)).run(
            sequence, observers=[registry] if registry is not None else [])


def make_bench_payload(ratio=1.2):
    """Minimal valid suite payload (schema of repro.obs.bench)."""
    return {
        "schema_version": 1,
        "suite": "tiny",
        "sequence": "room0",
        "repetitions": 2,
        "environment": {"python": "3.12.0", "numpy": "1.26.0",
                        "cpu_count": 8},
        "scenarios": {
            "tracking": {
                "counters": {"num_pixels": 100, "num_sort_keys": 50},
                "model": {"total_cycles": 1000.0, "dram_bytes": 4096.0},
                "info": {"gaussians": 64},
                "overhead": {"ratio": ratio, "mad": 0.01},
            },
        },
    }


class TestKeying:
    def test_config_hash_tells_execution_settings_apart(self, monkeypatch):
        hashes = set()
        for backend in ("reference", "vectorized"):
            monkeypatch.setattr(repro.render.kernels, "DEFAULT_BACKEND",
                                backend)
            hashes.add(config_hash(SLAMSystem(
                "splatam", mode="sparse").registry_config()))
        assert len(hashes) == 2

    def test_registry_config_records_resolved_settings(self):
        config = SLAMSystem("splatam", mode="sparse").registry_config()
        assert config["kernel_backend"] == "vectorized"
        assert "render_cache" not in config

    def test_config_hash_is_stable_and_order_free(self):
        a = config_hash({"tile": 8, "mode": "sparse"})
        b = config_hash({"mode": "sparse", "tile": 8})
        assert a == b and len(a) == 16
        assert config_hash({"tile": 4}) != a
        assert config_hash(None) is None


class TestRegistry:
    def test_register_and_get_round_trip(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        record = reg.register(
            "slam", metrics={"x": 1.0}, config={"tile": 8},
            sequence="room0", artifacts={"blob": b"hello"})
        assert record["schema_version"] == REGISTRY_SCHEMA_VERSION
        assert record["run_id"].startswith("r")
        assert record["seq"] == 1
        assert record["key"]["config_hash"] == config_hash({"tile": 8})
        assert "python" in record["key"]["environment"]
        got = reg.get(record["run_id"])
        assert got == json.loads(json.dumps(record))
        assert reg.read_artifact(got, "blob") == b"hello"

    def test_index_is_append_only_jsonl(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        reg.register("slam", metrics={"x": 1.0})
        reg.register("slam", metrics={"x": 2.0})
        lines = open(reg.index_path).read().splitlines()
        assert len(lines) == 2
        assert [json.loads(l)["seq"] for l in lines] == [1, 2]

    def test_identical_artifacts_stored_once(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        reg.register("slam", artifacts={"blob": b"same"})
        reg.register("slam", artifacts={"blob": b"same"})
        stats = reg.stats()
        assert stats["runs"] == 2
        assert stats["objects"] == 1

    def test_get_by_prefix_seq_and_ambiguity(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        a = reg.register("slam", metrics={"x": 1.0})
        b = reg.register("bench", metrics={"x": 2.0})
        assert reg.get(a["run_id"][:6])["seq"] == 1
        assert reg.get("1")["run_id"] == a["run_id"]
        assert reg.get("-1")["run_id"] == b["run_id"]
        with pytest.raises(KeyError, match="ambiguous"):
            reg.get("r")
        with pytest.raises(KeyError):
            reg.get("zzz")

    def test_runs_filter_by_kind(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        reg.register("slam")
        reg.register("bench")
        assert [r["kind"] for r in reg.runs(kind="bench")] == ["bench"]

    def test_strict_read_rejects_bad_lines(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        reg.register("slam")
        with open(reg.index_path, "a") as f:
            f.write("not json\n")
        with pytest.raises(ValueError, match="malformed"):
            reg.runs()
        assert len(reg.runs(strict=False)) == 1

    def test_strict_read_rejects_other_schema_versions(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        os.makedirs(reg.root, exist_ok=True)
        with open(reg.index_path, "w") as f:
            f.write(json.dumps({"schema_version": 99, "seq": 1}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            reg.runs()

    def test_prune_keeps_recent_and_drops_dead_objects(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        reg.register("slam", artifacts={"blob": b"old"})
        kept = reg.register("slam", artifacts={"blob": b"new"})
        result = reg.prune(keep=1)
        assert result["removed_runs"] == 1
        assert result["removed_objects"] == 1
        assert result["kept_runs"] == 1
        assert [r["run_id"] for r in reg.runs()] == [kept["run_id"]]
        assert reg.read_artifact(reg.get("-1"), "blob") == b"new"


class TestIngestion:
    def test_slam_run_registration_via_system(self, sequence, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        result = run_slam(sequence, registry=reg)
        assert result.run_id is not None
        record = reg.get(result.run_id)
        assert record["kind"] == "slam"
        assert record["key"]["dataset"] == "room0"
        assert record["config"]["tracking_tile"] == 8
        system = SLAMSystem("splatam", mode="sparse",
                            splatonic_config=SplatonicConfig(tracking_tile=8))
        assert record["key"]["config_hash"] == config_hash(
            system.registry_config())
        metrics = record["metrics"]
        assert metrics["slam.frames"] == 4.0
        assert metrics["slam.ate.rmse_m"] >= 0
        assert metrics["slam.wall.mean_s"] > 0
        assert any(k.startswith("slam.tracking_fwd.num_") for k in metrics)
        # The flight artifact round-trips into a parseable log.
        log = reg.load_flight(record)
        assert log.num_frames == 4
        assert log.summary is not None

    def test_run_without_registry_has_no_run_id(self, sequence):
        assert run_slam(sequence).run_id is None

    def test_bench_payload_ingestion(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        record = ingest_bench_payload(reg, make_bench_payload())
        assert record["kind"] == "bench"
        assert record["key"]["environment"]["numpy"] == "1.26.0"
        metrics = record["metrics"]
        assert metrics["bench.tracking.counters.num_pixels"] == 100.0
        assert metrics["bench.tracking.model.total_cycles"] == 1000.0
        assert metrics["bench.tracking.overhead.ratio"] == 1.2
        assert reg.load_artifact_json(record, "bench")["suite"] == "tiny"

    def test_ingest_slam_run_from_record_stream(self, sequence, tmp_path):
        from repro.obs.flight import FlightRecorder

        rec = FlightRecorder()
        rec.enable()
        SLAMSystem("splatam", mode="sparse",
                   splatonic_config=SplatonicConfig(tracking_tile=8)).run(
            sequence, observers=[rec])
        rec.disable()
        reg = RunRegistry(str(tmp_path / "reg"))
        record = ingest_slam_run(reg, rec.records,
                                 extra_artifacts={"note": b"x"})
        assert record["kind"] == "slam"
        assert set(record["artifacts"]) == {"flight", "note"}
        assert record["meta"]["algorithm"] == "splatam"


class TestDisabledIsFree:
    def test_default_run_never_touches_runsdb(self, sequence):
        """A run without a registry observer never calls into runsdb."""
        import sys
        import unittest.mock as mock

        with mock.patch.object(runsdb, "ingest_slam_run",
                               side_effect=AssertionError) as spy:
            result = run_slam(sequence)
        assert result.run_id is None
        assert spy.call_count == 0
        assert "repro.obs.runsdb" in sys.modules  # import was ours, above
