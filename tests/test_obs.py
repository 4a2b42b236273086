"""Tests for the observability layer: tracer, metrics registry, logger.

Covers span nesting/ordering/attributes, the disabled-mode fast path,
Chrome trace-event export, deterministic metrics export, the stats
bridges, and the instrumented SLAM loop (the four paper stages must
appear as spans in a traced run).
"""

import json
import logging
import time

import numpy as np
import pytest

from repro.datasets import make_replica_sequence
from repro.obs import (MetricsRegistry, Tracer, configure, get_logger,
                       ingest_pipeline_stats, metrics, trace)
from repro.obs.log import verbosity_to_level
from repro.obs.tracing import _NULL_SPAN
from repro.render.stats import PipelineStats
from repro.slam import SLAMSystem


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------

def test_span_nesting_and_order():
    t = Tracer(enabled=True)
    with t.span("outer", frame=3):
        with t.span("inner_a"):
            pass
        with t.span("inner_b"):
            pass
    names = [r.name for r in t.records]
    # Records are appended at span *completion*: children before parent.
    assert names == ["inner_a", "inner_b", "outer"]
    depths = {r.name: r.depth for r in t.records}
    assert depths == {"outer": 0, "inner_a": 1, "inner_b": 1}
    outer = t.records[-1]
    assert outer.attrs == {"frame": 3}


def test_span_self_time_excludes_children():
    t = Tracer(enabled=True)
    with t.span("parent"):
        with t.span("child"):
            time.sleep(0.005)
    parent = next(r for r in t.records if r.name == "parent")
    child = next(r for r in t.records if r.name == "child")
    assert parent.duration >= child.duration
    assert parent.self_time == pytest.approx(
        parent.duration - child.duration, abs=1e-9)
    assert parent.self_time < parent.duration


def test_span_set_attaches_attributes():
    t = Tracer(enabled=True)
    with t.span("track", frame=1) as sp:
        sp.set(iterations=7, converged=True)
    rec = t.records[0]
    assert rec.attrs == {"frame": 1, "iterations": 7, "converged": True}


def test_span_exception_unwinds_stack():
    t = Tracer(enabled=True)
    with pytest.raises(ValueError):
        with t.span("outer"):
            with t.span("inner"):
                raise ValueError("boom")
    # Both spans recorded despite the exception; the stack is clean.
    assert [r.name for r in t.records] == ["inner", "outer"]
    with t.span("after"):
        pass
    assert t.records[-1].depth == 0


def test_disabled_tracer_records_nothing_and_allocates_nothing():
    t = Tracer()
    assert not t.enabled
    spans = [t.span("hot", i=i) for i in range(8)]
    # Disabled span() returns one shared singleton — no per-call object.
    assert all(s is spans[0] for s in spans)
    with spans[0]:
        pass
    assert t.records == []
    assert isinstance(spans[0], type(_NULL_SPAN))


def test_capture_restores_prior_state():
    t = Tracer()
    with t.capture():
        assert t.enabled
        with t.span("in_capture"):
            pass
    assert not t.enabled
    assert t.span_names() == ["in_capture"]
    # capture(reset=True) clears the previous capture's records.
    with t.capture():
        pass
    assert t.records == []


def test_chrome_trace_schema(tmp_path):
    t = Tracer(enabled=True)
    with t.span("a", frame=0, note=np.int64(5)):
        with t.span("b"):
            pass
    path = tmp_path / "trace.json"
    n = t.write_chrome_trace(str(path))
    assert n == 2
    events = json.loads(path.read_text())
    assert isinstance(events, list) and len(events) == 2
    for ev in events:
        assert set(ev) >= {"name", "ph", "ts", "dur", "pid", "tid"}
        assert ev["ph"] == "X"
        assert isinstance(ev["ts"], float) and isinstance(ev["dur"], float)
    # Start-ordered: the parent "a" opened before its child "b".
    assert [ev["name"] for ev in events] == ["a", "b"]
    # numpy attr values are coerced to plain JSON scalars.
    assert events[0]["args"] == {"frame": 0, "note": 5}


def test_stage_table_and_summary():
    t = Tracer(enabled=True)
    for _ in range(3):
        with t.span("stage_x"):
            pass
    with t.span("stage_y"):
        time.sleep(0.002)
    table = {row["span"]: row for row in t.stage_table()}
    assert table["stage_x"]["count"] == 3
    assert table["stage_y"]["total_s"] >= 0.002
    text = t.format_summary("demo")
    assert "### demo" in text
    assert "stage_x" in text and "stage_y" in text
    # Empty tracer still renders a valid table.
    assert "(no spans recorded)" in Tracer().format_summary()


# ---------------------------------------------------------------------------
# Metrics registry + bridges
# ---------------------------------------------------------------------------

def test_registry_instruments_and_deterministic_export():
    reg = MetricsRegistry()
    reg.inc("b.count", 2)
    reg.inc("a.count")
    reg.inc("b.count", 3)
    reg.set_gauge("a.rate", 0.5)
    out = reg.export()
    assert list(out["counters"]) == ["a.count", "b.count"]
    assert out["counters"]["b.count"] == 5
    # Two exports of identical state serialize byte-identically.
    assert json.dumps(out, sort_keys=True) == json.dumps(
        reg.export(), sort_keys=True)
    reg.reset()
    assert reg.export()["counters"] == {}


def test_registry_export_sections():
    reg = MetricsRegistry()
    reg.inc("a.count")
    reg.set_gauge("a.rate", 0.5)
    assert set(reg.export()) == {"counters", "gauges", "warnings"}


def test_registry_warn_records_and_logs(capsys):
    configure(verbosity=0)  # route repro.* logs to the current stdout
    reg = MetricsRegistry()
    reg.warn("something odd")
    assert reg.warnings == ["something odd"]
    assert "something odd" in capsys.readouterr().out


def test_ingest_pipeline_stats_bridge():
    stats = PipelineStats(pipeline="pixel", num_pixels=10,
                          num_candidate_pairs=40, num_contrib_pairs=20,
                          per_pixel_contribs=[2] * 10)
    reg = MetricsRegistry()
    ingest_pipeline_stats("tracking_fwd", stats, reg)
    assert reg.counters["tracking_fwd.num_pixels"] == 10
    assert reg.counters["tracking_fwd.num_candidate_pairs"] == 40
    assert reg.gauges["tracking_fwd.alpha_pass_rate"] == pytest.approx(0.5)
    assert "tracking_fwd.warp_utilization" in reg.gauges
    # Ingesting again accumulates counters (monotonic across passes).
    ingest_pipeline_stats("tracking_fwd", stats, reg)
    assert reg.counters["tracking_fwd.num_pixels"] == 20


def test_pipeline_stats_as_dict_and_summary():
    stats = PipelineStats(pipeline="tile", tile_size=8, num_pixels=4,
                          num_candidate_pairs=8, num_contrib_pairs=4,
                          num_sort_keys=6, num_atomic_adds=2,
                          per_pixel_contribs=[1, 1, 1, 1])
    d = stats.as_dict()
    assert d["pipeline"] == "tile" and d["num_sort_keys"] == 6
    assert "per_pixel_contribs" not in d  # replay lists stay out
    json.dumps(d)  # JSON-ready
    s = stats.summary()
    assert s["alpha_pass_rate"] == pytest.approx(0.5)
    assert s["candidate_pairs_per_pixel"] == pytest.approx(2.0)
    assert s["atomic_adds_per_pixel"] == pytest.approx(0.5)
    # Empty stats must not divide by zero.
    json.dumps(PipelineStats().summary())


# ---------------------------------------------------------------------------
# Logger
# ---------------------------------------------------------------------------

def test_verbosity_mapping():
    assert verbosity_to_level(-3) == logging.ERROR
    assert verbosity_to_level(-1) == logging.WARNING
    assert verbosity_to_level(0) == logging.INFO
    assert verbosity_to_level(2) == logging.DEBUG


def test_configure_single_handler_and_namespace(capsys):
    configure(verbosity=0)
    configure(verbosity=0)  # repeated configure must not double-print
    log = get_logger("cli")
    assert log.name == "repro.cli"
    log.info("hello once")
    log.debug("hidden at default verbosity")
    out = capsys.readouterr().out
    assert out.count("hello once") == 1
    assert "hidden" not in out


# ---------------------------------------------------------------------------
# Instrumented SLAM loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def traced_run():
    sequence = make_replica_sequence("room0", n_frames=3, width=32, height=24)
    tracer_snapshot = {}
    with trace.capture():
        result = SLAMSystem("splatam", mode="sparse", seed=0).run(sequence)
        tracer_snapshot["names"] = set(trace.span_names())
        tracer_snapshot["records"] = trace.records
        tracer_snapshot["events"] = trace.to_chrome_trace()
    return result, tracer_snapshot


def test_slam_run_emits_stage_spans(traced_run):
    _, snap = traced_run
    for stage in ("tracking_fwd", "tracking_bwd", "mapping_fwd",
                  "mapping_bwd"):
        assert stage in snap["names"], f"missing span {stage}"
    assert "slam.run" in snap["names"]
    assert "render.composite" in snap["names"]
    # The whole run nests under the root slam.run span.
    root = [r for r in snap["records"] if r.name == "slam.run"]
    assert len(root) == 1 and root[0].depth == 0
    assert json.dumps(snap["events"])  # full run is JSON-serializable


def test_eval_quality_reports_frames_evaluated():
    sequence = make_replica_sequence("room0", n_frames=3, width=32, height=24)
    result = SLAMSystem("splatam", mode="sparse", seed=0).run(sequence)
    scores = result.eval_quality(sequence, every=2)
    assert scores["frames_evaluated"] == 2
    assert np.isfinite(scores["psnr"])


def test_eval_quality_empty_sampling_is_guarded():
    sequence = make_replica_sequence("room0", n_frames=3, width=32, height=24)
    result = SLAMSystem("splatam", mode="sparse", seed=0).run(sequence)
    result.num_frames = 0  # nothing to sample: the NaN-mean trap
    before = len(metrics.warnings)
    scores = result.eval_quality(sequence, every=4)
    assert scores["frames_evaluated"] == 0
    assert scores["psnr"] == 0.0 and scores["ssim"] == 0.0
    assert not any(np.isnan(v) for v in scores.values())
    assert len(metrics.warnings) == before + 1
    assert "eval_quality" in metrics.warnings[-1]


def test_disabled_tracing_overhead_is_negligible():
    t = Tracer()

    def loop(n):
        start = time.perf_counter()
        acc = 0.0
        for i in range(n):
            sp = t.span("hot")
            acc += i * 1e-9
        return time.perf_counter() - start, acc

    loop(10_000)  # warm up
    elapsed, _ = loop(200_000)
    # 200k disabled span() calls in well under a second: the fast path is
    # one branch + a shared singleton return, nothing else.
    assert elapsed < 1.0
    assert t.records == []
