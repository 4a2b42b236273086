"""Cross-run trend analysis and regression triage over the registry."""

import pytest

from repro.core import SplatonicConfig
from repro.datasets import make_replica_sequence
from repro.obs.runsdb import RunRegistry
from repro.obs.triage import (
    TriagePolicy,
    detect_step,
    format_trend,
    metric_series,
    select_metrics,
    triage_runs,
)
from repro.slam import SLAMSystem


@pytest.fixture(scope="module")
def sequence():
    return make_replica_sequence("room0", n_frames=4, width=32, height=24,
                                 surface_density=10)


@pytest.fixture(scope="module")
def perturbed_registry(sequence, tmp_path_factory):
    """Two registered SLAM runs differing only in the tracking tile —
    the acceptance-criterion scenario."""
    reg = RunRegistry(str(tmp_path_factory.mktemp("triage") / "reg"))
    for tile in (8, 4):
        SLAMSystem(
            "splatam", mode="sparse",
            splatonic_config=SplatonicConfig(tracking_tile=tile)).run(
                sequence, observers=[reg])
    return reg


def attrib_doc(scenario="tracking/tiny", scale=1.0):
    """Minimal cycle-attribution artifact (AttributionReport.to_dict)."""
    return {
        "scenario": scenario,
        "clock_hz": 1e9,
        "rows": [
            {"pass": "forward", "stage": "projection",
             "unit": "projection + alpha-filter units",
             "cycles": 1000.0, "share": 0.4, "bottleneck": False},
            {"pass": "forward", "stage": "sorting",
             "unit": "sorting units",
             "cycles": 500.0 * scale, "share": 0.2, "bottleneck": True},
        ],
        "totals": {"forward": 1000.0 + 500.0 * scale},
    }


class TestDetectStep:
    def test_flat_series_has_no_step(self):
        assert detect_step([5.0] * 8) is None

    def test_clean_step_found_at_the_right_run(self):
        values = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        step = detect_step(values, seqs=[10, 11, 12, 13, 14, 15])
        assert step is not None
        assert step.index == 3
        assert step.seq == 13
        assert step.before == 1.0 and step.after == 2.0
        assert step.rel == pytest.approx(1.0)

    def test_noise_below_mad_slack_is_not_a_step(self):
        values = [1.0, 1.2, 0.9, 1.1, 1.05, 1.14, 0.95, 1.08]
        assert detect_step(values) is None

    def test_short_series_returns_none(self):
        assert detect_step([1.0, 2.0, 3.0]) is None


class TestTrend:
    def _runs(self, values, metric="slam.wall.mean_s"):
        return [{"seq": i + 1, "run_id": f"r{i:012d}",
                 "metrics": {metric: v}} for i, v in enumerate(values)]

    def test_metric_series_and_selection(self):
        runs = self._runs([1.0, 2.0])
        assert metric_series(runs, "slam.wall.mean_s") == [
            (1, "r000000000000", 1.0), (2, "r000000000001", 2.0)]
        assert select_metrics(runs, None) == ["slam.wall.mean_s"]
        assert select_metrics(runs, ["*nothing*"]) == []

    def test_format_trend_reports_changepoint(self):
        runs = self._runs([1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
        text = format_trend(runs)
        assert "slam.wall.mean_s" in text
        assert "step @run 4" in text
        assert "1 changepoint(s) detected" in text

    def test_empty_registry_renders_hint(self):
        assert "registry is empty" in format_trend([])


class TestTriageEndToEnd:
    def test_perturbed_stage_is_top_culprit(self, perturbed_registry):
        reg = perturbed_registry
        base, current = reg.get("-2"), reg.get("-1")
        report = triage_runs(reg, base, current)
        assert report.top is not None
        assert report.top.stage == "tracking"
        assert report.top.unit is not None
        delta_keys = {d["key"] for d in report.config_delta}
        assert delta_keys == {"tracking_tile"}
        # The flight differ contributed the first-divergence frame.
        assert report.first_divergence_frame is not None
        assert any(c.startswith("tracking") or c == "counters"
                   for c in report.diverged_channels)

    def test_markdown_and_json_agree_on_the_verdict(self, perturbed_registry,
                                                    tmp_path):
        reg = perturbed_registry
        report = triage_runs(reg, reg.get("-2"), reg.get("-1"))
        text = report.format_markdown()
        assert "**top culprit: tracking" in text
        assert "config delta: tracking_tile: 8 -> 4" in text
        out = tmp_path / "triage.json"
        report.write_json(str(out))
        import json
        doc = json.loads(out.read_text())
        assert doc["culprits"][0]["stage"] == "tracking"
        assert doc["evidence_total"] == report.evidence_total

    def test_self_triage_finds_no_culprits(self, perturbed_registry):
        reg = perturbed_registry
        base = reg.get("-1")
        report = triage_runs(reg, base, base)
        assert report.culprits == []
        assert report.config_delta == []
        assert "no evidence of change" in report.format_markdown()

    def test_attrib_artifacts_name_the_hardware_unit(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        base = reg.register("bench", metrics={"x": 1.0},
                            artifacts={"attrib": attrib_doc(scale=1.0)})
        cur = reg.register("bench", metrics={"x": 1.0},
                           artifacts={"attrib": attrib_doc(scale=2.0)})
        report = triage_runs(reg, base, cur)
        assert report.top is not None
        assert report.top.stage == "tracking"
        assert report.top.unit == "sorting units"
        attrib = [e for c in report.culprits for e in c.evidence
                  if e.source == "attrib"]
        assert len(attrib) == 1
        assert attrib[0].metric == "attrib.forward.sorting.cycles"
        assert attrib[0].rel == pytest.approx(1.0)

    def test_env_mismatch_is_reported(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        base = reg.register("slam", environment={"numpy": "1.26.0",
                                                 "cpu_count": 8})
        cur = reg.register("slam", environment={"numpy": "2.0.0",
                                                "cpu_count": 8})
        report = triage_runs(reg, base, cur)
        assert report.env_mismatches == ["numpy: '1.26.0' vs '2.0.0'"]
        assert "environment mismatch" in report.format_markdown()


class TestPolicy:
    def test_wall_noise_below_floor_is_not_evidence(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        base = reg.register("slam", metrics={"slam.wall.mean_s": 0.100})
        cur = reg.register("slam", metrics={"slam.wall.mean_s": 0.110})
        report = triage_runs(reg, base, cur)
        assert report.culprits == []

    def test_counter_deltas_always_count(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "reg"))
        key = "slam.tracking_fwd.num_pixels"
        base = reg.register("slam", metrics={key: 100.0})
        cur = reg.register("slam", metrics={key: 101.0})
        report = triage_runs(reg, base, cur)
        assert report.top is not None
        assert report.top.stage == "tracking"
        assert report.top.unit == "raster engines (render units)"

    def test_rel_cap_bounds_zero_baselines(self):
        policy = TriagePolicy()
        from repro.obs.triage import _rel_delta
        assert _rel_delta(0.0, 5.0, policy.rel_cap) == policy.rel_cap
        assert _rel_delta(1.0, 1.0, policy.rel_cap) == 0.0
