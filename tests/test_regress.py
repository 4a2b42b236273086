"""Regression gate: tolerance semantics and comparator edge cases."""

import json

import pytest

from repro.obs.bench import SCHEMA_VERSION
from repro.obs.regress import (
    DEFAULT_SECTIONS,
    Finding,
    RegressionReport,
    TolerancePolicy,
    compare_files,
    compare_runs,
)


def make_payload(scenarios=None):
    """A minimal valid trajectory payload (deep-copied per call)."""
    base = {
        "tracking": {
            "counters": {"pixel.fwd.num_contrib_pairs": 1000,
                         "pixel.fwd.num_sort_keys": 250},
            "model": {"accel.total_s": 0.004, "gpu.dense.total_s": 0.1},
        },
    }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "suite": "tiny",
        "repetitions": 3,
        "environment": {},
        "scenarios": scenarios if scenarios is not None else base,
    }
    return json.loads(json.dumps(doc))


class TestCleanComparison:
    def test_identical_runs_pass(self):
        report = compare_runs(make_payload(), make_payload())
        assert report.passed
        assert report.exit_code == 0
        assert not report.regressions
        assert all(f.status == "ok" for f in report.findings)

    def test_counts_tally_all_findings(self):
        report = compare_runs(make_payload(), make_payload())
        # 2 counters + 2 model
        assert report.counts() == {"ok": 4}


class TestCounterExactness:
    def test_injected_counter_regression_fails(self):
        cur = make_payload()
        cur["scenarios"]["tracking"]["counters"][
            "pixel.fwd.num_contrib_pairs"] += 1
        report = compare_runs(cur, make_payload())
        assert not report.passed
        assert report.exit_code == 1
        (bad,) = report.regressions
        assert bad.metric == "counters.pixel.fwd.num_contrib_pairs"
        assert bad.kind == "counter"

    def test_counter_decrease_also_fails(self):
        # Counters are exact, not smaller-is-better: any drift means the
        # workload changed.
        cur = make_payload()
        cur["scenarios"]["tracking"]["counters"][
            "pixel.fwd.num_sort_keys"] -= 10
        report = compare_runs(cur, make_payload())
        assert not report.passed


class TestModelTolerance:
    def test_within_relative_tolerance_is_ok(self):
        cur = make_payload()
        cur["scenarios"]["tracking"]["model"]["accel.total_s"] *= 1 + 1e-9
        report = compare_runs(cur, make_payload())
        assert report.passed

    def test_beyond_tolerance_regresses(self):
        cur = make_payload()
        cur["scenarios"]["tracking"]["model"]["accel.total_s"] *= 1.01
        report = compare_runs(cur, make_payload())
        (bad,) = report.regressions
        assert bad.metric == "model.accel.total_s"

    def test_improvement_is_not_a_failure(self):
        cur = make_payload()
        cur["scenarios"]["tracking"]["model"]["accel.total_s"] *= 0.5
        report = compare_runs(cur, make_payload())
        assert report.passed
        assert any(f.status == "improved" for f in report.findings)

    def test_zero_valued_baseline_uses_absolute_floor(self):
        base = make_payload()
        base["scenarios"]["tracking"]["model"]["accel.total_s"] = 0.0
        cur = make_payload()
        cur["scenarios"]["tracking"]["model"]["accel.total_s"] = 0.0
        assert compare_runs(cur, base).passed
        # Any appreciable value on a zero baseline regresses.
        cur["scenarios"]["tracking"]["model"]["accel.total_s"] = 1e-6
        assert not compare_runs(cur, base).passed

    def test_boundary_exactly_at_tolerance_is_ok(self):
        policy = TolerancePolicy(model_rel=0.1, model_abs=0.0)
        base = make_payload()
        cur = make_payload()
        v = base["scenarios"]["tracking"]["model"]["accel.total_s"]
        cur["scenarios"]["tracking"]["model"]["accel.total_s"] = v * 1.1
        assert compare_runs(cur, base, policy=policy).passed
        cur["scenarios"]["tracking"]["model"]["accel.total_s"] = v * 1.11
        assert not compare_runs(cur, base, policy=policy).passed


def with_overhead(doc, ratio, mad=0.0):
    """Give ``doc``'s scenario an ``obs_overhead``-style section."""
    doc["scenarios"]["tracking"]["overhead"] = {
        "ratio": ratio, "mad": mad, "samples": [ratio], "repetitions": 1}
    return doc


class TestOverheadTolerance:
    def test_noise_within_slack_is_ok(self):
        base = with_overhead(make_payload(), 1.0)
        cur = with_overhead(make_payload(), 1.3)
        assert compare_runs(cur, base).passed

    def test_large_slowdown_regresses(self):
        base = with_overhead(make_payload(), 1.0)
        cur = with_overhead(make_payload(), 2.0)
        (bad,) = compare_runs(cur, base).regressions
        assert bad.kind == "overhead"
        assert bad.metric == "overhead.ratio"

    def test_mad_widens_the_slack(self):
        # +0.7 beats the 0.5 floor and the 35 % margin, but the baseline
        # is noisy: 4 MADs of 0.2 = 0.8 slack.
        base = with_overhead(make_payload(), 1.0, mad=0.2)
        cur = with_overhead(make_payload(), 1.7)
        assert compare_runs(cur, base).passed

    def test_absolute_floor_forgives_small_ratios(self):
        # +45 % on a 1.0 ratio beats the 35 % margin but stays under the
        # 0.5 absolute floor.
        base = with_overhead(make_payload(), 1.0)
        cur = with_overhead(make_payload(), 1.45)
        assert compare_runs(cur, base).passed

    def test_shrink_reports_improved(self):
        base = with_overhead(make_payload(), 2.0)
        cur = with_overhead(make_payload(), 1.0)
        report = compare_runs(cur, base)
        assert report.passed
        assert any(f.status == "improved" and f.kind == "overhead"
                   for f in report.findings)

    def test_overhead_section_can_be_skipped(self):
        base = with_overhead(make_payload(), 1.0)
        cur = with_overhead(make_payload(), 99.0)
        report = compare_runs(cur, base, sections=["counters", "model"])
        assert report.passed


class TestStructuralChanges:
    def test_new_metric_passes_with_note(self):
        cur = make_payload()
        cur["scenarios"]["tracking"]["counters"]["brand_new"] = 7
        report = compare_runs(cur, make_payload())
        assert report.passed
        (new,) = [f for f in report.findings if f.status == "new"]
        assert new.metric == "counters.brand_new"

    def test_removed_metric_fails(self):
        cur = make_payload()
        del cur["scenarios"]["tracking"]["counters"]["pixel.fwd.num_sort_keys"]
        report = compare_runs(cur, make_payload())
        assert not report.passed
        (gone,) = report.regressions
        assert gone.status == "removed"

    def test_removed_scenario_fails(self):
        cur = make_payload(scenarios={})
        report = compare_runs(cur, make_payload())
        assert not report.passed
        (gone,) = report.regressions
        assert gone.metric == "(scenario)"

    def test_new_scenario_passes(self):
        cur = make_payload()
        cur["scenarios"]["extra"] = {"counters": {"x": 1}, "model": {}}
        report = compare_runs(cur, make_payload())
        assert report.passed

    def test_legacy_wall_section_is_ignored(self):
        # Older trajectories carry wall/trace tables; only the gated
        # sections are compared.
        base, cur = make_payload(), make_payload()
        for doc, median in ((base, 0.1), (cur, 99.0)):
            doc["scenarios"]["tracking"]["wall"] = {"median_s": median,
                                                    "mad_s": 0.0}
            doc["scenarios"]["tracking"]["trace_stages"] = []
        report = compare_runs(cur, base)
        assert report.passed
        assert report.counts() == {"ok": 4}

    def test_unstable_counters_fail(self):
        # The last repetition matches the baseline, but the counters
        # varied across repetitions: not a fingerprint.
        cur = make_payload()
        cur["scenarios"]["tracking"]["stable_counters"] = False
        report = compare_runs(cur, make_payload(),
                              sections=["counters"])
        assert not report.passed
        (bad,) = report.regressions
        assert bad.metric == "stable_counters"
        assert bad.scenario == "tracking"

    def test_schema_version_mismatch_is_an_error(self):
        cur = make_payload()
        cur["schema_version"] = SCHEMA_VERSION + 1
        report = compare_runs(cur, make_payload())
        assert report.exit_code == 2
        assert any("schema_version" in e for e in report.errors)

    def test_non_object_payload_is_an_error(self):
        report = compare_runs([], make_payload())
        assert report.exit_code == 2


class TestEnvironmentMismatch:
    def test_identical_environments_raise_no_warning(self):
        base = make_payload()
        base["environment"] = {"python": "3.12.0", "numpy": "1.26.0",
                               "cpu_count": 8}
        cur = json.loads(json.dumps(base))
        report = compare_runs(cur, base)
        assert report.env_mismatches == []
        assert "environment mismatch" not in report.format_markdown()

    def test_mismatch_is_warned_before_the_verdict(self):
        base = make_payload()
        base["environment"] = {"python": "3.12.0", "numpy": "1.26.0",
                               "cpu_count": 8}
        cur = make_payload()
        cur["environment"] = {"python": "3.12.0", "numpy": "2.0.0",
                              "cpu_count": 16}
        report = compare_runs(cur, base)
        assert len(report.env_mismatches) == 2
        assert any("numpy" in m for m in report.env_mismatches)
        assert any("cpu_count" in m for m in report.env_mismatches)
        text = report.format_markdown()
        # Warned explicitly, immediately under the verdict header.
        assert "WARNING: environment mismatch" in text.splitlines()[1]
        assert "untrustworthy" in text

    def test_mismatch_alone_does_not_fail_the_gate(self):
        base = make_payload()
        base["environment"] = {"cpu_count": 8}
        cur = make_payload()
        cur["environment"] = {"cpu_count": 64}
        report = compare_runs(cur, base)
        assert report.passed
        assert report.exit_code == 0

    def test_mismatches_land_in_the_json_report(self, tmp_path):
        base = make_payload()
        base["environment"] = {"numpy": "1.26.0"}
        cur = make_payload()
        cur["environment"] = {"numpy": "2.0.0"}
        report = compare_runs(cur, base)
        out = tmp_path / "report.json"
        report.write_json(str(out))
        doc = json.loads(out.read_text())
        assert doc["env_mismatches"] == report.env_mismatches


class TestCompareFiles:
    def test_round_trip_via_files(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(make_payload()))
        report = compare_files(str(a), str(a))
        assert report.passed

    def test_missing_baseline_is_an_error_with_hint(self, tmp_path):
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(make_payload()))
        report = compare_files(str(cur), str(tmp_path / "nope.json"))
        assert report.exit_code == 2
        (err,) = report.errors
        assert "baseline file not found" in err
        assert "repro bench run" in err  # actionable hint

    def test_scenario_subset_ignores_other_scenarios(self, tmp_path):
        base_doc = make_payload()
        base_doc["scenarios"]["mapping"] = {"counters": {"x": 1},
                                            "model": {}}
        base = tmp_path / "base.json"
        base.write_text(json.dumps(base_doc))
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(make_payload()))
        assert not compare_files(str(cur), str(base)).passed
        report = compare_files(str(cur), str(base), scenarios=["tracking"])
        assert report.passed
        assert {f.scenario for f in report.findings} == {"tracking"}

    def test_missing_current_is_an_error(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(make_payload()))
        report = compare_files(str(tmp_path / "nope.json"), str(base))
        assert report.exit_code == 2
        assert any("current" in e for e in report.errors)

    def test_corrupt_baseline_is_an_error(self, tmp_path):
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(make_payload()))
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        report = compare_files(str(cur), str(bad))
        assert report.exit_code == 2


class TestReporting:
    def test_markdown_mentions_verdict_and_regression(self):
        cur = make_payload()
        cur["scenarios"]["tracking"]["counters"][
            "pixel.fwd.num_contrib_pairs"] += 5
        report = compare_runs(cur, make_payload())
        text = report.format_markdown()
        assert "FAIL" in text
        assert "pixel.fwd.num_contrib_pairs" in text
        clean = compare_runs(make_payload(), make_payload())
        assert "PASS" in clean.format_markdown()

    def test_json_report_is_sorted_and_excludes_ok(self, tmp_path):
        cur = make_payload()
        cur["scenarios"]["tracking"]["model"]["accel.total_s"] *= 2
        report = compare_runs(cur, make_payload())
        out = tmp_path / "report.json"
        report.write_json(str(out))
        doc = json.loads(out.read_text())
        assert doc["passed"] is False
        assert all(f["status"] != "ok" for f in doc["findings"])
        # Canonical output: re-dumping with sort_keys is a no-op.
        assert out.read_text() == json.dumps(doc, indent=1,
                                             sort_keys=True) + "\n"

    def test_default_sections_order(self):
        assert DEFAULT_SECTIONS == ("counters", "model", "overhead")
