"""Tests for the per-span profile and the observability-overhead gate.

Covers the tracer's CPU-time and tracemalloc columns and the one stage
table that carries them (repro.obs.tracing), the
``overhead`` section of the regress comparator (repro.obs.regress), and
the record-gated ``PipelineStats.summary()`` / metrics-ingest fixes that
rode along.
"""

import time

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, ingest_pipeline_stats
from repro.obs.regress import (DEFAULT_SECTIONS, _compare_overhead_ratio,
                               compare_runs)
from repro.obs.tracing import Tracer
from repro.render.stats import PipelineStats


def _busy(ms: float = 2.0, clock=time.process_time) -> float:
    """Burn CPU (not sleep) until ``clock`` has advanced by ``ms``."""
    deadline = clock() + ms / 1e3
    acc = 0.0
    while clock() < deadline:
        acc += sum(i * i for i in range(100))
    return acc


class TestCpuTime:
    def test_span_records_cpu_fields(self):
        t = Tracer()
        with t.capture():
            with t.span("outer"):
                _busy(2.0)
                with t.span("inner"):
                    _busy(2.0)
        inner, outer = t.records
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.cpu_time > 0.0
        assert outer.cpu_time >= inner.cpu_time
        # Self CPU excludes the child's share.
        assert outer.self_cpu == pytest.approx(
            outer.cpu_time - inner.cpu_time, abs=1e-9)
        assert inner.self_cpu == pytest.approx(inner.cpu_time, abs=1e-9)
        # Memory profiling was off: alloc fields stay None.
        assert inner.alloc_bytes is None and inner.peak_bytes is None

    def test_stage_table_always_has_cpu_columns(self):
        t = Tracer()
        with t.capture():
            with t.span("work"):
                _busy(1.0)
        (row,) = t.stage_table()
        assert row["cpu_total_s"] >= row["cpu_self_s"] >= 0.0
        assert "alloc_bytes" not in row


class TestMemoryProfiling:
    def test_alloc_and_peak_deltas(self):
        t = Tracer()
        with t.capture(memory=True):
            with t.span("alloc"):
                block = np.ones(512 * 1024, dtype=np.uint8)
                del block
        assert not t.profile_memory  # restored after capture
        (rec,) = t.records
        assert rec.peak_bytes is not None
        assert rec.peak_bytes >= 512 * 1024
        assert rec.alloc_bytes is not None  # net delta (freed: near zero)

    def test_retained_allocation_is_positive_delta(self):
        t = Tracer()
        keep = []
        with t.capture(memory=True):
            with t.span("retain"):
                keep.append(np.ones(256 * 1024, dtype=np.uint8))
        (rec,) = t.records
        assert rec.alloc_bytes >= 256 * 1024
        keep.clear()

    def test_child_peak_propagates_to_parent(self):
        t = Tracer()
        with t.capture(memory=True):
            with t.span("parent"):
                with t.span("child"):
                    block = np.ones(512 * 1024, dtype=np.uint8)
                    del block
        child, parent = t.records
        assert parent.peak_bytes >= child.peak_bytes

    def test_stage_table_mem_columns_when_on(self):
        t = Tracer()
        with t.capture(memory=True):
            with t.span("work"):
                _busy(0.5)
        (row,) = t.stage_table()
        assert "alloc_bytes" in row and "peak_bytes" in row


class TestStageTable:
    def _traced(self, memory=False):
        t = Tracer()
        with t.capture(memory=memory):
            # The table ranks wall self time: spin to wall deadlines, or a
            # descheduled "light" span can outlast "heavy".
            with t.span("heavy"):
                _busy(3.0, clock=time.perf_counter)
            with t.span("light"):
                _busy(0.5, clock=time.perf_counter)
        return t

    def test_stage_table_ranked_by_self_time(self):
        rows = self._traced().stage_table()
        assert [r["span"] for r in rows] == ["heavy", "light"]

    def test_format_summary_plain_has_cpu_column_only(self):
        plain = self._traced().format_summary()
        assert ("| span | count | total ms | self ms | self % "
                "| cpu self ms |") in plain
        assert "alloc" not in plain

    def test_format_summary_memory_fills_every_column(self):
        mem = self._traced(memory=True).format_summary(title="profile")
        assert mem.startswith("### profile")
        assert "| cpu self ms | alloc | peak |" in mem
        heavy = next(line for line in mem.splitlines()
                     if line.startswith("| heavy "))
        assert heavy.count("|") == 9  # eight columns, all filled
        assert "—" not in heavy


def _payload(ratio, mad=0.01, name="obs_overhead"):
    return {
        "schema_version": 1,
        "config": {"size": "tiny"},
        "scenarios": {
            name: {
                "counters": {"frames": 6},
                "model": {},
                "overhead": {"ratio": ratio, "mad": mad, "samples": [ratio],
                             "repetitions": 1},
            },
        },
    }


class TestOverheadBudget:
    def test_overhead_in_default_sections(self):
        assert "overhead" in DEFAULT_SECTIONS

    def test_within_budget_is_ok(self):
        f = _compare_overhead_ratio("s", {"ratio": 1.2, "mad": 0.02},
                                    {"ratio": 1.5, "mad": 0.02})
        assert f.status == "ok"

    def test_exceeding_budget_regresses(self):
        # slack = max(0.5, 1.2*0.35, 4*0.02) = 0.5 -> budget 1.7x
        f = _compare_overhead_ratio("s", {"ratio": 1.2, "mad": 0.02},
                                    {"ratio": 1.8, "mad": 0.02})
        assert f.status == "regressed"
        assert "budget" in f.detail

    def test_large_improvement_reported(self):
        f = _compare_overhead_ratio("s", {"ratio": 2.5, "mad": 0.0},
                                    {"ratio": 1.1, "mad": 0.0})
        assert f.status == "improved"

    def test_compare_runs_gates_on_section_presence(self):
        base, cur = _payload(1.2), _payload(1.3)
        report = compare_runs(cur, base)
        kinds = {f.kind for f in report.findings}
        assert "overhead" in kinds
        assert report.passed

        # Baseline without the section: comparison silently skipped.
        del base["scenarios"]["obs_overhead"]["overhead"]
        report = compare_runs(cur, base)
        assert "overhead" not in {f.kind for f in report.findings}

    def test_compare_runs_fails_over_budget(self):
        report = compare_runs(_payload(2.0), _payload(1.1))
        assert not report.passed
        assert report.exit_code != 0
        assert any(f.kind == "overhead" and f.status == "regressed"
                   for f in report.findings)


class TestRecordGatedSummary:
    def _stats(self, record):
        s = PipelineStats(record_per_pixel=record)
        s.num_pixels = 4
        s.num_candidate_pairs = 10
        s.num_contrib_pairs = 5
        if record:
            s.per_pixel_contribs.extend([1, 2, 1, 1])
        return s

    def test_summary_none_when_records_off(self):
        summary = self._stats(record=False).summary()
        assert summary["mean_contribs_per_pixel"] is None
        assert summary["warp_utilization"] is None
        assert summary["alpha_pass_rate"] == 0.5

    def test_summary_real_values_when_records_on(self):
        summary = self._stats(record=True).summary()
        assert summary["mean_contribs_per_pixel"] == 1.25
        assert summary["warp_utilization"] is not None

    def test_merge_propagates_record_flag(self):
        merged = PipelineStats(record_per_pixel=True)
        merged.merge(self._stats(record=False))
        assert merged.record_per_pixel is False
        assert merged.summary()["warp_utilization"] is None

    def test_metrics_ingest_skips_none_gauges(self):
        reg = MetricsRegistry()
        ingest_pipeline_stats("stage", self._stats(record=False),
                              registry=reg)
        assert "stage.num_candidate_pairs" in reg.counters
        assert "stage.alpha_pass_rate" in reg.gauges
        assert "stage.warp_utilization" not in reg.gauges
        assert "stage.mean_contribs_per_pixel" not in reg.gauges
