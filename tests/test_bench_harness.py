"""Bench harness: table formatting and the scenario/workload builders."""

import numpy as np
import pytest

from repro.bench import (
    PAPER_GAUSSIANS,
    build_bundle,
    format_kv,
    format_table,
    mapping_workloads,
    tracking_workloads,
)


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 1.5}, {"name": "bb", "value": 20.0}]
        text = format_table("Demo", rows)
        lines = text.splitlines()
        assert lines[0] == "== Demo =="
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table("Empty", [])

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table("T", rows, columns=["a", "c"])
        assert "b" not in text.splitlines()[1]

    def test_float_formatting(self):
        rows = [{"x": 0.000123}, {"x": 12345.6}, {"x": 1.25}]
        text = format_table("F", rows)
        assert "0.000123" in text
        assert "1.25" in text

    def test_format_kv(self):
        text = format_kv("KV", {"alpha": 1.0, "beta": "x"})
        assert "== KV ==" in text
        assert "alpha" in text and "beta" in text

    def test_missing_column_is_blank(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        text = format_table("M", rows, columns=["a", "b"])
        assert text  # renders without raising


@pytest.mark.slow
class TestScenario:
    @pytest.fixture(scope="class")
    def bundle(self):
        return build_bundle(width=64, height=48, n_frames=6,
                            surface_density=9)

    def test_bundle_contents(self, bundle):
        assert len(bundle.cloud) > 100
        assert bundle.frame.color.shape == (48, 64, 3)
        assert bundle.pixel_factor > 100
        assert np.isclose(bundle.gaussian_factor * len(bundle.cloud),
                          PAPER_GAUSSIANS)

    def test_bundle_cached(self, bundle):
        again = build_bundle(width=64, height=48, n_frames=6,
                             surface_density=9)
        assert again is bundle

    def test_tracking_workloads_modes(self, bundle):
        ws = tracking_workloads(bundle)
        assert set(ws) == {"dense", "tile_sparse", "pixel"}
        assert ws["dense"].pipeline == "tile"
        assert ws["pixel"].pipeline == "pixel"
        # Sparse variants render the same pixel count.
        assert (ws["tile_sparse"].fwd.num_pixels
                == ws["pixel"].fwd.num_pixels)

    def test_tracking_tile_controls_pixels(self, bundle):
        coarse = tracking_workloads(bundle, tile=16)["pixel"]
        fine = tracking_workloads(bundle, tile=8)["pixel"]
        assert fine.fwd.num_pixels > 3 * coarse.fwd.num_pixels

    def test_mapping_workloads_render_more_pixels(self, bundle):
        track = tracking_workloads(bundle)["pixel"]
        mapping = mapping_workloads(bundle)["pixel"]
        assert mapping.fwd.num_pixels > track.fwd.num_pixels


@pytest.mark.slow
class TestProbeMapSchedule:
    """``build_bundle`` keeps its own copy of ``SLAMSystem.run``'s mapping
    schedule: the bootstrap, the mapped frames and their keyframe windows.
    A run whose tracker returns each true pose, and draws no pixels, must
    then end on the probe map, byte for byte."""

    @pytest.mark.parametrize("n_frames,frame_index", [(6, 4), (10, 8)])
    def test_run_at_true_poses_ends_on_the_probe_map(
            self, monkeypatch, n_frames, frame_index):
        from repro.slam import SLAMSystem, Tracker, TrackingResult

        bundle = build_bundle(width=48, height=36, n_frames=n_frames)
        assert bundle.frame_index == frame_index
        truth = iter(bundle.sequence.gt_trajectory[1:])
        monkeypatch.setattr(
            Tracker, "track_frame",
            lambda *args, **kwargs: TrackingResult(
                pose_c2w=next(truth).copy(), iterations=0, final_loss=0.0,
                converged=True))
        result = SLAMSystem("splatam", mode="sparse", seed=0).run(
            bundle.sequence, n_frames=frame_index + 1)
        assert result.cloud.pack().tobytes() == bundle.cloud.pack().tobytes()
