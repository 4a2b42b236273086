"""The metrics-registry bridge against hand-built ``PipelineStats``."""

import pytest

from repro.obs import MetricsRegistry, ingest_pipeline_stats
from repro.render import PipelineStats


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestIngestPipelineStats:
    def make_stats(self):
        return PipelineStats(
            pipeline="pixel", image_width=64, image_height=48,
            num_gaussians=500, num_projected=400, num_pixels=100,
            num_candidate_pairs=1000, num_contrib_pairs=250,
            num_sort_keys=800, num_alpha_checks=1000, num_atomic_adds=750,
            per_pixel_contribs=[2, 3] * 50)

    def test_num_counters_accumulate(self, registry):
        stats = self.make_stats()
        ingest_pipeline_stats("tracking_fwd", stats, registry=registry)
        counters = registry.counters
        assert counters["tracking_fwd.num_contrib_pairs"] == 250
        assert counters["tracking_fwd.num_sort_keys"] == 800
        # A second ingest adds (counters are monotonic accumulators).
        ingest_pipeline_stats("tracking_fwd", stats, registry=registry)
        assert registry.counters["tracking_fwd.num_contrib_pairs"] == 500

    def test_non_num_fields_are_not_counters(self, registry):
        ingest_pipeline_stats("s", self.make_stats(), registry=registry)
        assert "s.image_width" not in registry.counters
        assert "s.pipeline" not in registry.counters

    def test_derived_rates_land_as_gauges(self, registry):
        ingest_pipeline_stats("s", self.make_stats(), registry=registry)
        gauges = registry.gauges
        assert gauges["s.alpha_pass_rate"] == pytest.approx(0.25)
        assert gauges["s.mean_contribs_per_pixel"] == pytest.approx(2.5)
        assert 0.0 < gauges["s.warp_utilization"] <= 1.0

    def test_empty_stats_ingest_cleanly(self, registry):
        ingest_pipeline_stats("empty", PipelineStats(), registry=registry)
        assert registry.gauges["empty.alpha_pass_rate"] == 0.0


class TestExportDeterminism:
    def test_export_is_sorted_and_plain(self, registry):
        ingest_pipeline_stats("b_stage", PipelineStats(num_projected=3),
                              registry=registry)
        ingest_pipeline_stats("a_stage", PipelineStats(num_projected=2),
                              registry=registry)
        export = registry.export()
        keys = list(export["counters"])
        assert keys == sorted(keys)
        assert all(isinstance(v, (int, float))
                   for v in export["counters"].values())
