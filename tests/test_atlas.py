"""Tests for the sparsity atlas (repro.obs.atlas).

Covers collector lifecycle and gating, byte-level determinism of the
artifact, round-trip through ``read_atlas``, aggregation API edge cases
(empty logs, empty frames, zero grids), collector routing via
``use_collector``, heatmap rendering, and the SLAM integration where the
observed spatial totals must exactly match the per-stage pipeline
counters (delta zero).
"""

import gzip
import json

import numpy as np
import pytest

from repro.datasets import make_replica_sequence
from repro.obs import atlas as atlas_mod
from repro.obs.atlas import (ATLAS_SCHEMA_VERSION, CHANNELS, AtlasCollector,
                             AtlasLog, format_heatmap, heatmap_html,
                             read_atlas)
from repro.slam import SLAMSystem


def _observe_simple(collector, frame=0, width=32, height=24):
    """Open a frame and feed one deterministic forward+backward pass."""
    collector.begin_frame(frame, width, height)
    with collector.stage("tracking"):
        pixels = np.array([[1, 1], [9, 1], [17, 9], [30, 22]])
        pair_pix = np.array([0, 0, 1, 2, 2, 2])
        pair_gss = np.array([0, 1, 0, 0, 1, 2])
        contribs = np.array([2, 1, 2, 0])
        collector.observe_sparse_forward(pixels, pair_pix, pair_gss,
                                         contribs)
        collector.observe_sparse_backward(pixels, contribs)
    collector.end_frame()


class TestCollectorLifecycle:
    def test_disabled_collector_is_inert(self):
        c = AtlasCollector()
        assert not c.enabled
        assert not c.active
        c.begin_run(note="ignored")
        c.begin_frame(0, 32, 24)
        assert not c.active
        c.observe_sparse_forward(np.array([[0, 0]]), np.array([0]),
                                 np.array([0]), np.array([1]))
        c.end_frame()
        assert c.records == []

    def test_observations_outside_frame_are_ignored(self):
        c = AtlasCollector()
        c.enable()
        c.begin_run()
        # No begin_frame: active stays False, observation is dropped.
        c.observe_sparse_forward(np.array([[0, 0]]), np.array([0]),
                                 np.array([0]), np.array([1]))
        assert not c.active
        assert len(c.records) == 1  # header only
        c.disable()

    def test_frame_record_contents(self):
        c = AtlasCollector(tile=8)
        c.enable()
        c.begin_run(sequence="synthetic")
        _observe_simple(c)
        c.disable()

        header, frame = c.records
        assert header["type"] == "header"
        assert header["schema_version"] == ATLAS_SCHEMA_VERSION
        assert header["tile"] == 8
        assert header["channels"] == list(CHANNELS)
        assert header["meta"]["sequence"] == "synthetic"

        assert frame["type"] == "frame"
        assert frame["grid"] == [3, 4]  # ceil(24/8) x ceil(32/8)
        grids = {name: np.asarray(frame["channels"][name])
                 for name in CHANNELS}
        assert grids["sampled"].sum() == 4
        assert grids["candidates"].sum() == 6
        assert grids["contribs"].sum() == 5
        assert grids["atomics"].sum() == 5
        obs = frame["observed"]["tracking"]
        assert obs["candidates"] == 6
        assert obs["contribs"] == 5
        assert obs["atomics"] == 5
        # Pixel (1,1) and (9,1) live in different 8px atlas tiles.
        assert grids["sampled"][0][0] == 1
        assert grids["sampled"][0][1] == 1

    def test_empty_frame_records_zero_grids(self):
        c = AtlasCollector(tile=8)
        c.enable()
        c.begin_frame(0, 16, 16)
        c.end_frame()
        c.disable()
        (frame,) = c.records
        for name in CHANNELS:
            assert np.asarray(frame["channels"][name]).sum() == 0
        assert frame["observed"] == {}

    def test_record_to_context_manager(self):
        c = AtlasCollector()
        with c.record_to(tile=4) as cc:
            assert cc.enabled
            assert cc.tile == 4
            _observe_simple(cc)
        assert not c.enabled
        assert len(c.records) == 1


class TestDeterminism:
    def test_identical_observations_identical_bytes(self):
        blobs = []
        for _ in range(2):
            c = AtlasCollector(tile=8)
            c.enable()
            c.begin_run(sequence="synthetic", frames=1)
            _observe_simple(c)
            c.disable()
            blobs.append(c.to_bytes())
        assert blobs[0] == blobs[1]
        # gzip(mtime=0): serializing the same collector twice is stable.
        c = AtlasCollector(tile=8)
        c.enable()
        _observe_simple(c)
        c.disable()
        assert c.to_bytes() == c.to_bytes()

    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "atlas.jsonl.gz"
        c = AtlasCollector(tile=8)
        c.enable(path=str(path))
        c.begin_run(sequence="synthetic")
        _observe_simple(c)
        c.disable()
        assert path.exists()

        log = read_atlas(str(path))
        assert log.num_frames == 1
        assert log.tile == 8
        assert log.grid_shape == (3, 4)
        assert log.stages() == ["tracking"]
        direct = AtlasLog.from_collector(c)
        for name in CHANNELS:
            assert np.array_equal(log.frame_grid(0, name),
                                  direct.frame_grid(0, name))

    def test_read_plain_jsonl(self, tmp_path):
        c = AtlasCollector()
        c.enable()
        c.begin_run()
        _observe_simple(c)
        c.disable()
        path = tmp_path / "atlas.jsonl"
        body = "".join(json.dumps(r, sort_keys=True) + "\n"
                       for r in c.records)
        path.write_text(body)
        log = read_atlas(str(path))
        assert log.num_frames == 1

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "header",
                                    "schema_version": 999}) + "\n")
        with pytest.raises(ValueError, match="schema mismatch"):
            read_atlas(str(path))


class TestAggregation:
    def test_empty_log_edges(self):
        log = AtlasLog([])
        assert log.num_frames == 0
        assert log.grid_shape == (0, 0)
        assert log.stages() == []
        assert log.sum_atlas("candidates").shape == (0, 0)
        assert log.mean_atlas("candidates").shape == (0, 0)
        assert log.max_atlas("candidates").shape == (0, 0)
        counts, edges = log.occupancy_histogram("candidates")
        assert sum(counts) >= 0 and len(edges) == len(counts) + 1
        assert log.imbalance("candidates") == []
        assert log.observed_totals() == {}
        assert log.measured_vs_modeled() == {}

    def test_zero_work_frame_aggregates(self):
        c = AtlasCollector(tile=8)
        c.enable()
        c.begin_frame(0, 16, 16)
        c.end_frame()
        c.disable()
        log = AtlasLog.from_collector(c)
        assert log.num_frames == 1
        assert log.sum_atlas("candidates").sum() == 0
        assert np.all(log.alpha_pass_atlas() == 0.0)
        assert log.imbalance("candidates") == [0.0]

    def test_mean_max_and_alpha_pass(self):
        c = AtlasCollector(tile=8)
        c.enable()
        _observe_simple(c, frame=0)
        _observe_simple(c, frame=1)
        c.disable()
        log = AtlasLog.from_collector(c)
        assert log.num_frames == 2
        s = log.sum_atlas("candidates")
        assert s.sum() == 12
        assert np.array_equal(log.max_atlas("candidates") * 2, s)
        assert np.allclose(log.mean_atlas("candidates") * 2, s)
        rate = log.alpha_pass_atlas()
        assert rate.min() >= 0.0 and rate.max() <= 1.0
        # Global rate matches the totals: 5 contribs over 6 candidates.
        nz = log.sum_atlas("candidates") > 0
        total = (rate * log.sum_atlas("candidates"))[nz].sum()
        assert np.isclose(total / 6 / 2, 5.0 / 6.0)

    def test_observed_totals_accumulate_across_frames(self):
        c = AtlasCollector(tile=8)
        c.enable()
        _observe_simple(c, frame=0)
        _observe_simple(c, frame=1)
        c.disable()
        totals = AtlasLog.from_collector(c).observed_totals()
        assert totals["tracking"]["candidates"] == 12
        assert totals["tracking"]["contribs"] == 10
        assert totals["tracking"]["atomics"] == 10


class TestRouting:
    def test_use_collector_rebinds_and_restores(self):
        original = atlas_mod.current
        c = AtlasCollector()
        c.enable()
        c.begin_frame(0, 16, 16)
        with atlas_mod.use_collector(c) as active:
            assert active is c
            assert atlas_mod.current is c
            atlas_mod.set_stage("tracking")
            c.observe_sparse_forward(np.array([[0, 0]]), np.array([0]),
                                     np.array([0]), np.array([1]))
        assert atlas_mod.current is original
        c.end_frame()
        c.disable()
        (frame,) = c.records
        assert frame["observed"]["tracking"]["candidates"] == 1

    def test_use_collector_none_keeps_routing(self):
        before = atlas_mod.current
        with atlas_mod.use_collector(None) as active:
            assert active is before
            assert atlas_mod.current is before
        assert atlas_mod.current is before


class TestHeatmaps:
    def test_format_heatmap_blank_for_zero(self):
        out = format_heatmap(np.zeros((2, 3)))
        assert out == "   \n   "

    def test_format_heatmap_empty(self):
        assert format_heatmap(np.zeros((0, 0))) == "(empty grid)"

    def test_format_heatmap_peak_char(self):
        out = format_heatmap(np.array([[0, 1], [2, 4]]))
        rows = out.split("\n")
        assert rows[0][0] == " "     # exact zero stays blank
        assert rows[1][1] == "█"     # the peak gets the top ramp char

    def test_heatmap_html_structure(self):
        html = heatmap_html(np.array([[0.0, 1.0]]), label="demo")
        assert html.startswith('<table class="heatmap"')
        assert "<caption>demo</caption>" in html
        assert html.count("<td") == 2


class TestSLAMIntegration:
    @classmethod
    def setup_class(cls):
        cls.sequence = make_replica_sequence("room0", n_frames=4,
                                             width=32, height=24)
        cls.collector = AtlasCollector(tile=8)
        cls.collector.enable()
        system = SLAMSystem("splatam", mode="sparse", seed=0)
        cls.result = system.run(cls.sequence, observers=[cls.collector])
        cls.collector.disable()
        cls.log = AtlasLog.from_collector(cls.collector)

    def test_every_frame_recorded(self):
        assert self.log.num_frames == len(self.sequence)
        assert self.log.header["meta"]["sequence"] == "room0"

    def test_observed_matches_pipeline_counters_exactly(self):
        """Spatial bins and scalar counters count the same pair sets."""
        mvm = self.log.measured_vs_modeled()
        assert set(mvm) >= {"mapping"}
        for stage, row in mvm.items():
            assert row["delta_candidates"] == 0, stage
            assert row["delta_contribs"] == 0, stage
            assert row["observed_atomics"] == row["counter_atomics"], stage
            assert 0.0 < row["alpha_pass_rate"] <= 1.0

    def test_run_totals_match_stage_stats(self):
        totals = self.log.observed_totals()
        ss = self.result.stage_stats
        for stage, fwd_key, bwd_key in (
                ("tracking", "tracking_fwd", "tracking_bwd"),
                ("mapping", "mapping_fwd", "mapping_bwd")):
            assert (totals[stage]["candidates"]
                    == ss[fwd_key].num_candidate_pairs)
            assert (totals[stage]["contribs"]
                    == ss[fwd_key].num_contrib_pairs)
            assert totals[stage]["atomics"] == ss[bwd_key].num_atomic_adds

    def test_model_section_present(self):
        model = self.log.model_totals()
        assert "mapping" in model
        assert model["mapping"]["fwd_cycles"] > 0
        assert model["mapping"]["fwd_dram_bytes"] > 0

    def test_artifact_is_gzip_jsonl(self, tmp_path):
        path = tmp_path / "slam_atlas.jsonl.gz"
        self.collector.write(str(path))
        blob = path.read_bytes()
        assert blob[:2] == b"\x1f\x8b"
        lines = gzip.decompress(blob).decode("utf-8").splitlines()
        assert len(lines) == 1 + self.log.num_frames
