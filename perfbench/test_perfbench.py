"""Tests of the benchmark itself, on the workloads cut to a few frames.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run as bench  # noqa: E402

bench.sanitize_env()

import workloads  # noqa: E402
from layers import PER_LAYER, Tracer, layer_metrics  # noqa: E402

#: Frames per workload: localization needs 3 poses for ATE; slam_sparse
#: needs frame 4 to run a mapping call with a sparse keyframe.
SHORT = {"localize_sparse": 4, "slam_sparse": 5, "slam_dense": 3}

TILE_LAYERS = ("render.rasterize", "render.tiles", "render.backward.tile",
               "render.compositing.tile")
SPARSE_LAYERS = ("render.kernels.fwd", "render.kernels.bwd",
                 "render.kernels.candidates", "core.pixel_pipeline")


@pytest.fixture(scope="module", params=sorted(SHORT))
def runs(request):
    workload = workloads.WORKLOADS[request.param]
    sequence = workloads.setup(workload, frames=SHORT[request.param])
    untraced = workloads.run_once(workload, sequence, seed=0)
    traced = workloads.run_once(workload, sequence, seed=0, traced=True)
    return workload, untraced, traced


def test_traced_run_is_bit_identical_to_untraced(runs):
    _, untraced, traced = runs
    assert traced.fingerprint == untraced.fingerprint
    assert traced.ate_cm == untraced.ate_cm
    assert traced.failed_frames == untraced.failed_frames == []


def test_only_untraced_runs_calibrate(runs):
    _, untraced, traced = runs
    assert untraced.tracer.calibration_wall_s > 0.0 < untraced.slowdown
    assert traced.tracer.calibration_wall_s == 0.0
    assert traced.slowdown == 1.0
    # Calibration brackets every kept call with 2 * CALIBRATION_S.
    calls = len(untraced.track_ms) + len(untraced.map_ms)
    assert untraced.tracer.calibration_wall_s >= (
        2 * calls * workloads.CALIBRATION_S)


def test_wrapper_counts_match_program_accounting(runs):
    workload, _, traced = runs
    calls = traced.tracer.calls
    iterations = sum(traced.fingerprint["tracking_iterations"])
    assert traced.tracer.counts["slam.tracker.iters"] == iterations
    if workload.name == "localize_sparse":
        # One kernel forward per tracking iteration; the tile pipeline
        # never runs once set-up is over.
        assert calls["render.kernels.fwd"] == iterations
        for layer in TILE_LAYERS:
            assert calls[layer] == 0, layer
    elif workload.name == "slam_dense":
        for layer in SPARSE_LAYERS:
            assert calls[layer] == 0, layer
        assert calls["render.rasterize"] > 0
    else:
        for layer in TILE_LAYERS + SPARSE_LAYERS:
            assert calls[layer] > 0, layer


def test_layer_metrics_are_complete_and_glue_is_nonnegative(runs):
    _, untraced, traced = runs
    metrics = layer_metrics(traced.tracer, traced.wall_s, untraced.wall_s,
                            traced.final_size)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["glue.self_s"] >= 0.0
    assert sum(v for k, v in metrics.items()
               if k.endswith(".self_s")) <= traced.wall_s


def test_tracer_restores_every_patched_entry_point():
    from repro.core import splatonic
    from repro.render.kernels import get_kernel
    from repro.slam.tracker import Tracker

    before = (splatonic.render_sparse, Tracker.track_frame,
              get_kernel("reference").forward)
    with Tracer():
        assert splatonic.render_sparse is not before[0]
    assert (splatonic.render_sparse, Tracker.track_frame,
            get_kernel("reference").forward) == before


def test_fail_rate_bound_is_never_zero_and_grows_with_failures():
    clean = bench.fail_rate_upper(0, 12)
    assert 0.0 < clean < bench.fail_rate_upper(1, 12) < 1.0
    assert bench.fail_rate_upper(12, 12) == 1.0


def test_repeat_count_does_not_depend_on_speed():
    class Slow:
        @staticmethod
        def run_once(workload, sequence, seed, traced=False):
            return traced

    runs = bench._timed_runs(Slow, None, None, 0, trace=True)
    assert runs == [False] + [True] * (bench.REPEATS - 1)
    assert bench._timed_runs(Slow, None, None, 0, trace=False) == (
        [False] * bench.REPEATS)


def test_peak_rss_reset_forgets_earlier_peaks():
    import numpy as np

    block = np.ones(64 << 17)  # 64 MB, touched
    high = bench.peak_rss_mb()
    del block
    bench.reset_peak_rss()
    low = bench.peak_rss_mb()
    assert low < high - 32
    block = np.ones(64 << 17)
    assert bench.peak_rss_mb() >= low + 60
    del block


def test_sanitize_env_drops_knobs_and_caps_blas_threads(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "vectorized")
    monkeypatch.setenv("REPRO_RENDER_CACHE", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "9999")
    nproc = bench.sanitize_env()
    assert "REPRO_KERNEL_BACKEND" not in os.environ
    assert "REPRO_RENDER_CACHE" not in os.environ
    assert os.environ["OMP_NUM_THREADS"] == str(nproc)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slam_sparse",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
