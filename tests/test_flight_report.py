"""Flight reports and run-to-run diffing (sparklines, markdown/HTML, diff)."""

import pytest

from repro.obs.flight import FLIGHT_SCHEMA_VERSION, FlightLog
from repro.obs.report import diff_runs, render_report, sparkline


def make_log(n_frames=4, seed_shift=0.0, path=None, **header_overrides):
    """A hand-built but schema-shaped FlightLog for fast unit tests."""
    header = {
        "type": "header", "schema_version": FLIGHT_SCHEMA_VERSION,
        "algorithm": "splatam", "mode": "sparse", "sequence": "room0",
        "frames": n_frames, "width": 32, "height": 24,
        "environment": {"python": "3.11", "numpy": "2.0",
                        "platform": "linux"},
    }
    header.update(header_overrides)
    frames = []
    for i in range(n_frames):
        pose = [[1.0, 0.0, 0.0, 0.1 * i + seed_shift],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0]]
        frames.append({
            "type": "frame", "frame": i,
            "pose_est": pose,
            "pose_error_m": 0.01 * i + seed_shift,
            "tracking": None if i == 0 else {
                "iterations": 10 + i, "converged": True,
                "final_loss": 0.1 / (i + 1) + seed_shift,
                "sampled_pixels": 48,
                "loss_curve": [0.2, 0.1 / (i + 1) + seed_shift],
            },
            "mapping": {"invoked": i == 0, "num_seeded": 50 if i == 0 else None,
                        "num_pruned": 0 if i == 0 else None,
                        "sampling": ({"unseen": 5, "weighted": 10, "total": 768,
                                      "unseen_coverage": 0.2}
                                     if i == 0 else None)},
            "gaussians": 100 + 5 * i,
            "keyframe": {"added": i == 0, "buffer_size": 1},
            "alpha": {"candidate_pairs": 100, "contrib_pairs": 60,
                      "rejection_rate": 0.4},
            "counters": {"tracking_fwd": {"num_pixels": 48 * (10 + i)}},
        })
    summary = {
        "type": "summary", "frames": n_frames,
        "ate": {"rmse": 0.05, "mean": 0.04, "median": 0.04, "max": 0.08,
                "per_frame": [0.01 * i for i in range(n_frames)]},
        "final_gaussians": 100 + 5 * (n_frames - 1),
        "mapping_invocations": 1, "tracking_iterations": 40,
        "alerts": [],
    }
    return FlightLog(header=header, frames=frames, summary=summary, path=path)


class TestSparkline:
    def test_monotone_series(self):
        assert sparkline([0, 1, 2, 3, 4, 5, 6, 7]) == "▁▂▃▄▅▆▇█"

    def test_constant_series_renders_mid(self):
        line = sparkline([2.0, 2.0, 2.0])
        assert len(line) == 3 and len(set(line)) == 1
        assert line[0] not in (" ",)

    def test_none_and_nan_become_spaces(self):
        assert sparkline([None, 1.0, float("nan"), 2.0]) == " ▁ █"

    def test_empty_and_all_missing(self):
        assert sparkline([]) == ""
        assert sparkline([None, None]) == "  "

    def test_width_caps_by_striding(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[0] == "▁" and line[-1] == "█"


class TestRenderReport:
    def test_markdown_has_headline_sections(self):
        text = render_report(make_log())
        assert text.startswith("# flight report — splatam/sparse, 4 frames")
        assert "## per-frame series" in text
        assert "## per-frame detail" in text
        assert "ATE rmse" in text and "5.00 cm" in text
        assert "schema" in text and f"v{FLIGHT_SCHEMA_VERSION}" in text

    def test_markdown_per_frame_rows(self):
        text = render_report(make_log(n_frames=3))
        detail = text.split("## per-frame detail")[1]
        rows = [line for line in detail.splitlines()
                if line.startswith("| ") and not line.startswith("| frame")]
        assert len(rows) == 3

    def test_html_is_a_standalone_page(self):
        text = render_report(make_log(), fmt="html")
        assert text.startswith("<!DOCTYPE html>")
        assert "<table>" in text and "</html>" in text
        assert "flight report" in text

    def test_alerts_section_appears_when_present(self):
        log = make_log()
        log.frames[2]["alerts"] = [{"monitor": "pose_jump", "frame": 2,
                                    "message": "teleported"}]
        text = render_report(log)
        assert "## health alerts" in text and "teleported" in text
        assert "health alerts**: 1" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="fmt"):
            render_report(make_log(), fmt="pdf")


class TestDiff:
    def test_identical_logs_do_not_diverge(self):
        diff = diff_runs(make_log(), make_log())
        assert not diff.diverged
        assert diff.first_divergence_frame is None
        assert diff.frames_compared == 4
        assert "no divergence" in diff.format_markdown()

    def test_different_seeds_pinpoint_first_frame(self):
        diff = diff_runs(make_log(), make_log(seed_shift=0.001))
        assert diff.diverged
        # seed_shift perturbs pose/pose_error/loss on every frame, so the
        # earliest divergence is frame 0.
        assert diff.first_divergence_frame == 0
        diverged = {c.channel for c in diff.channels if c.diverged}
        assert "pose" in diverged and "tracking.loss" in diverged
        assert "gaussians" not in diverged

    def test_single_frame_perturbation_located(self):
        a, b = make_log(n_frames=6), make_log(n_frames=6)
        b.frames[4]["gaussians"] = 999
        diff = diff_runs(a, b)
        assert diff.first_divergence_frame == 4
        gauss = next(c for c in diff.channels if c.channel == "gaussians")
        assert gauss.first_frame == 4
        assert gauss.a_value == 120 and gauss.b_value == 999

    def test_tolerance_absorbs_float_noise(self):
        a, b = make_log(), make_log()
        b.frames[1]["tracking"]["final_loss"] *= 1.0 + 1e-13
        assert not diff_runs(a, b).diverged
        b.frames[1]["tracking"]["final_loss"] *= 1.0 + 1e-3
        assert diff_runs(a, b).diverged

    def test_header_mismatch_flags_divergence(self):
        diff = diff_runs(make_log(), make_log(mode="dense"))
        assert diff.diverged
        assert any("mode" in m for m in diff.header_mismatches)
        assert "header mismatches" in diff.format_markdown()

    def test_frame_count_mismatch_flags_divergence(self):
        diff = diff_runs(make_log(n_frames=4), make_log(n_frames=6))
        assert diff.diverged
        assert diff.frame_counts == (4, 6)
        assert diff.frames_compared == 4
        assert "frame counts differ" in diff.format_markdown()

    def test_nested_counter_dicts_are_compared(self):
        a, b = make_log(), make_log()
        b.frames[3]["counters"]["tracking_fwd"]["num_pixels"] += 1
        diff = diff_runs(a, b)
        counters = next(c for c in diff.channels if c.channel == "counters")
        assert counters.first_frame == 3

    def test_to_dict_is_json_shaped(self):
        import json
        payload = diff_runs(make_log(), make_log(seed_shift=0.01)).to_dict()
        json.dumps(payload)
        assert payload["diverged"] is True
        assert payload["first_divergence_frame"] == 0


class TestRealRunSelfDiff:
    """Integration: a recorded run diffs clean against itself on disk."""

    def test_roundtrip_self_diff(self, tmp_path):
        from repro.core import SplatonicConfig
        from repro.datasets import make_replica_sequence
        from repro.obs.flight import FlightRecorder, read_flight_record
        from repro.slam import SLAMSystem

        seq = make_replica_sequence("room0", n_frames=3, width=24, height=18,
                                    surface_density=10)
        path_a = str(tmp_path / "a.jsonl")
        path_b = str(tmp_path / "b.jsonl")
        for path in (path_a, path_b):
            rec = FlightRecorder()
            rec.enable(path)
            SLAMSystem("splatam", mode="sparse",
                       splatonic_config=SplatonicConfig(tracking_tile=8),
                       seed=0).run(seq, observers=[rec])
            rec.disable()
        diff = diff_runs(read_flight_record(path_a),
                         read_flight_record(path_b))
        assert not diff.diverged, diff.format_markdown()
