"""Benchmark runner + cycle attribution: payload schema and consistency."""

import json

import pytest

from repro.obs import attrib as obs_attrib
from repro.obs import bench as obs_bench
from repro.obs.bench import (
    SCENARIOS,
    SCHEMA_VERSION,
    SIZES,
    SuiteConfig,
    environment_fingerprint,
    median_mad,
    run_suite,
    write_trajectory,
)
from repro.obs.regress import compare_runs
from repro.obs.tracing import Tracer


class TestMedianMad:
    def test_odd(self):
        med, mad = median_mad([3.0, 1.0, 2.0])
        assert med == 2.0
        assert mad == 1.0

    def test_even(self):
        med, mad = median_mad([1.0, 2.0, 3.0, 4.0])
        assert med == 2.5
        assert mad == 1.0

    def test_constant_samples_have_zero_mad(self):
        med, mad = median_mad([0.5] * 5)
        assert med == 0.5
        assert mad == 0.0

    def test_outlier_robustness(self):
        # One warm-up outlier must not move the median.
        med, _ = median_mad([10.0, 0.1, 0.1, 0.1, 0.1])
        assert med == 0.1

    def test_empty(self):
        assert median_mad([]) == (0.0, 0.0)


class TestSuiteConfig:
    def test_defaults(self):
        cfg = SuiteConfig()
        assert cfg.size == "small"
        assert cfg.repetitions == 3
        assert cfg.spec == SIZES["small"]

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="unknown size"):
            SuiteConfig(size="galactic")

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            SuiteConfig(repetitions=0)


class TestEnvironmentFingerprint:
    def test_required_fields(self):
        env = environment_fingerprint()
        for key in ("python", "numpy", "platform", "machine", "cpu_count"):
            assert key in env
        assert env["cpu_count"] >= 1


class TestRegistry:
    def test_curated_scenarios_present(self):
        assert set(SCENARIOS) >= {"tracking", "mapping", "slam_e2e",
                                  "hw_units"}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_suite(SuiteConfig(size="tiny"), scenarios=["nope"])


@pytest.fixture(scope="module")
def tiny_payload():
    """One real tiny-suite run shared by the payload tests."""
    return run_suite(SuiteConfig(size="tiny", repetitions=3))


class TestSuiteRun:
    def test_payload_envelope(self, tiny_payload):
        assert tiny_payload["schema_version"] == SCHEMA_VERSION
        assert tiny_payload["suite"] == "tiny"
        assert tiny_payload["repetitions"] == 3
        assert isinstance(tiny_payload["environment"], dict)
        assert set(tiny_payload["scenarios"]) == set(SCENARIOS)

    def test_scenario_sections(self, tiny_payload):
        for name, scn in tiny_payload["scenarios"].items():
            assert scn["counters"], name
            assert all(isinstance(v, int) for v in scn["counters"].values())
            # Wall time is perfbench's job; the suite records none.
            assert "wall" not in scn and "trace_stages" not in scn, name

    def test_counters_are_stable_across_repetitions(self, tiny_payload):
        for name, scn in tiny_payload["scenarios"].items():
            assert scn["stable_counters"], name

    def test_slam_e2e_exports_nonzero_image_dims(self, tiny_payload):
        counters = tiny_payload["scenarios"]["slam_e2e"]["counters"]
        spec = SIZES["tiny"]
        for stage in ("tracking_fwd", "tracking_bwd",
                      "mapping_fwd", "mapping_bwd"):
            assert counters[f"{stage}.image_width"] == spec.width
            assert counters[f"{stage}.image_height"] == spec.height

    def test_observability_is_passive_and_lossless(self, tiny_payload):
        scn = tiny_payload["scenarios"]["obs_overhead"]
        counters = scn["counters"]
        # Identical trajectory, map, and counters with everything on.
        assert counters["obs_passive"] == 1
        assert counters["obs_passive_bus"] == 1
        # Every obs channel actually collected something.
        for key in ("flight.records", "atlas.frames", "atlas.candidates",
                    "spans"):
            assert counters[key] > 0, key
        # The bus legs published the deterministic run stream, nothing
        # was lost to the subscriber's ring, and listening changes no
        # counts.
        assert counters["telemetry.published"] > 0
        assert (counters["telemetry.delivered"]
                == counters["telemetry.published_sub"]
                == counters["telemetry.published"])
        assert counters["telemetry.dropped"] == 0
        # A loose sanity ceiling; the CI budget gate is the tight one.
        overhead = scn["overhead"]
        ratios = [overhead["ratio"]] + [
            extra["ratio"] for extra in overhead["extra"].values()]
        assert len(ratios) == 3
        assert all(0.0 < ratio < 3.0 for ratio in ratios), ratios

    def test_self_comparison_is_clean(self, tiny_payload):
        roundtrip = json.loads(json.dumps(tiny_payload))
        report = compare_runs(roundtrip, tiny_payload)
        assert report.passed, report.format_markdown()

    def test_write_trajectory_is_canonical(self, tiny_payload, tmp_path):
        out = tmp_path / "traj.json"
        write_trajectory(tiny_payload, str(out))
        text = out.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"

    def test_scenario_subset(self):
        payload = run_suite(SuiteConfig(size="tiny", repetitions=1),
                            scenarios=["hw_units"])
        assert list(payload["scenarios"]) == ["hw_units"]


@pytest.fixture(scope="module")
def tiny_workloads():
    from repro.bench.scenarios import (
        build_bundle,
        mapping_workloads,
        tracking_workloads,
    )

    spec = SIZES["tiny"]
    bundle = build_bundle("room0", width=spec.width, height=spec.height,
                          n_frames=spec.frames, seed=0)
    return {
        "tracking": tracking_workloads(bundle, tile=spec.tracking_tile),
        "mapping": mapping_workloads(bundle, tile=spec.mapping_tile),
    }


class TestAttribution:
    @pytest.mark.parametrize("scenario", ["tracking", "mapping"])
    def test_bottleneck_matches_cycle_breakdown(self, tiny_workloads,
                                                scenario):
        from repro.hw import SplatonicAccelerator

        accel = SplatonicAccelerator()
        workload = tiny_workloads[scenario]["pixel"]
        report = obs_attrib.attribute_workload(workload, accel=accel,
                                               scenario=scenario)
        model = accel.stage_model(workload)
        assert report.bottleneck("forward") == model.forward.bottleneck
        assert report.bottleneck("backward") == model.backward.bottleneck
        flagged = {r.pass_name: r.stage for r in report.rows if r.bottleneck}
        assert flagged["forward"] == model.forward.bottleneck
        assert flagged["backward"] == model.backward.bottleneck

    @pytest.mark.parametrize("scenario", ["tracking", "mapping"])
    def test_rows_cover_all_units_with_cycles(self, tiny_workloads, scenario):
        report = obs_attrib.attribute_workload(
            tiny_workloads[scenario]["pixel"], scenario=scenario)
        assert {r.stage for r in report.rows} == set(obs_attrib.STAGE_UNITS)
        assert all(r.unit != "(unmapped unit)" for r in report.rows)
        for pass_name in ("forward", "backward"):
            shares = [r.share for r in report.rows_for(pass_name)]
            assert sum(shares) == pytest.approx(1.0)

    def test_totals_carry_dram_roofline(self, tiny_workloads):
        report = obs_attrib.attribute_workload(
            tiny_workloads["tracking"]["pixel"])
        for key in ("forward_cycles", "backward_cycles",
                    "forward_dram_cycles", "backward_dram_cycles"):
            assert report.totals[key] > 0.0

    def test_table_marks_bottleneck(self, tiny_workloads):
        report = obs_attrib.attribute_workload(
            tiny_workloads["mapping"]["pixel"], scenario="mapping")
        table = report.format_table()
        assert "<-- bottleneck" in table
        assert "aggregation unit" in table

    def test_chrome_trace_has_one_thread_per_unit(self, tiny_workloads,
                                                  tmp_path):
        report = obs_attrib.attribute_workload(
            tiny_workloads["tracking"]["pixel"])
        out = tmp_path / "units.json"
        n = report.write_chrome_trace(str(out))
        events = json.loads(out.read_text())
        assert len(events) == n
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == set(obs_attrib.STAGE_UNITS.values())
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")

    def test_report_json_round_trips(self, tiny_workloads, tmp_path):
        report = obs_attrib.attribute_workload(
            tiny_workloads["tracking"]["pixel"], scenario="tracking")
        out = tmp_path / "attrib.json"
        report.write_json(str(out))
        doc = json.loads(out.read_text())
        assert doc["scenario"] == "tracking"
        assert doc["bottlenecks"]["backward"] == report.bottleneck("backward")

    def test_rejects_tile_workload(self, tiny_workloads):
        with pytest.raises(ValueError, match="pixel"):
            obs_attrib.attribute_workload(
                tiny_workloads["tracking"]["tile_sparse"])


class TestWallStageRows:
    def test_spans_fold_onto_paper_stages(self):
        tracer = Tracer()
        with tracer.capture():
            with tracer.span("render.project"):
                pass
            with tracer.span("render.composite"):
                pass
            with tracer.span("something.else"):
                pass
        rows = obs_attrib.wall_stage_rows(tracer)
        stages = {r["stage"] for r in rows}
        assert {"projection", "rasterization", "(other)"} <= stages
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    def test_empty_tracer_is_empty(self):
        assert obs_attrib.wall_stage_rows(Tracer()) == []
