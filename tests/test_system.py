"""End-to-end SLAM runs: trajectories, maps, stats, and accuracy floors."""

import numpy as np
import pytest

from repro.core import SplatonicConfig
from repro.datasets import make_replica_sequence
from repro.slam import SLAMSystem


@pytest.fixture(scope="module")
def sequence():
    return make_replica_sequence("room0", n_frames=8, width=56, height=40,
                                 surface_density=10)


@pytest.fixture(scope="module")
def sparse_result(sequence):
    return SLAMSystem(
        "splatam", mode="sparse",
        splatonic_config=SplatonicConfig(tracking_tile=8)).run(sequence)


class TestRun:
    def test_trajectory_shapes(self, sequence, sparse_result):
        n = len(sequence)
        assert sparse_result.est_trajectory.shape == (n, 4, 4)
        assert sparse_result.gt_trajectory.shape == (n, 4, 4)
        assert sparse_result.num_frames == n

    def test_first_pose_anchored(self, sequence, sparse_result):
        assert np.allclose(sparse_result.est_trajectory[0],
                           sequence[0].gt_pose_c2w)

    def test_map_grows_from_bootstrap(self, sparse_result):
        assert len(sparse_result.cloud) > 100

    def test_ate_reasonable(self, sparse_result):
        ate = sparse_result.ate()
        assert np.isfinite(ate.rmse)
        assert ate.rmse < 0.5, "proxy-scale ATE should stay sub-half-metre"

    def test_quality_metrics(self, sequence, sparse_result):
        q = sparse_result.eval_quality(sequence)
        assert q["psnr"] > 20.0
        assert 0.0 <= q["ssim"] <= 1.0
        assert q["depth_l1"] < 1.0

    def test_stage_stats_populated(self, sparse_result):
        stats = sparse_result.stage_stats
        assert set(stats) == {"tracking_fwd", "tracking_bwd",
                              "mapping_fwd", "mapping_bwd"}
        assert stats["tracking_fwd"].num_pixels > 0
        assert stats["tracking_bwd"].num_atomic_adds > 0
        assert stats["mapping_fwd"].num_pixels > 0

    def test_tracking_iterations_recorded(self, sequence, sparse_result):
        assert len(sparse_result.tracking_iterations) == len(sequence) - 1
        assert all(i >= 1 for i in sparse_result.tracking_iterations)

    def test_mapping_invocations(self, sparse_result):
        # Bootstrap + one per map_every frames.
        assert sparse_result.mapping_invocations >= 2


class TestModes:
    def test_dense_mode_runs(self, sequence):
        result = SLAMSystem("splatam", mode="dense").run(sequence, n_frames=4)
        assert result.mode == "dense"
        assert np.isfinite(result.ate().rmse)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            SLAMSystem("splatam", mode="semi")

    def test_needs_two_frames(self, sequence):
        with pytest.raises(ValueError):
            SLAMSystem("splatam").run(sequence, n_frames=1)

    def test_seed_reproducibility(self, sequence):
        a = SLAMSystem("splatam", seed=3).run(sequence, n_frames=4)
        b = SLAMSystem("splatam", seed=3).run(sequence, n_frames=4)
        assert np.allclose(a.est_trajectory, b.est_trajectory)

    @pytest.mark.parametrize("algorithm", ["monogs", "gsslam", "flashslam"])
    def test_other_algorithms_run(self, sequence, algorithm):
        result = SLAMSystem(algorithm, mode="sparse").run(sequence,
                                                          n_frames=4)
        assert result.algorithm == algorithm
        assert np.isfinite(result.ate().rmse)


class TestConstantVelocity:
    def test_extrapolation(self):
        from repro.gaussians import se3_exp
        step = se3_exp(np.array([0.1, 0, 0, 0, 0.05, 0]))
        p0 = np.eye(4)
        p1 = p0 @ step
        init = SLAMSystem._constant_velocity_init([p0, p1])
        assert np.allclose(init, p1 @ step)

    def test_single_pose_fallback(self):
        p0 = np.eye(4)
        init = SLAMSystem._constant_velocity_init([p0])
        assert np.allclose(init, p0)


class TestEvalQualityEdges:
    def test_every_larger_than_run_evaluates_first_frame_only(
            self, sequence, sparse_result):
        q = sparse_result.eval_quality(sequence,
                                       every=sparse_result.num_frames + 10)
        assert q["frames_evaluated"] == 1
        assert q["psnr"] > 0.0

    def test_every_zero_clamps_to_all_frames(self, sequence, sparse_result):
        q = sparse_result.eval_quality(sequence, every=0)
        assert q["frames_evaluated"] == sparse_result.num_frames

    def test_negative_every_clamps_too(self, sequence, sparse_result):
        q = sparse_result.eval_quality(sequence, every=-3)
        assert q["frames_evaluated"] == sparse_result.num_frames

    def test_every_one_matches_zero(self, sequence, sparse_result):
        assert (sparse_result.eval_quality(sequence, every=1)
                == sparse_result.eval_quality(sequence, every=0))


class TestFlightRecording:
    def test_run_with_recorder_reproduces_ate(self, sequence, tmp_path):
        from repro.obs.flight import FlightRecorder, read_flight_record
        path = str(tmp_path / "run.jsonl")
        rec = FlightRecorder()
        rec.enable(path)
        result = SLAMSystem(
            "splatam", mode="sparse",
            splatonic_config=SplatonicConfig(tracking_tile=8)).run(
                sequence, n_frames=4, observers=[rec])
        rec.disable()
        log = read_flight_record(path)
        assert log.num_frames == 4
        assert log.summary["ate"]["rmse"] == pytest.approx(
            result.ate().rmse, rel=1e-12)

    def test_custom_health_monitor_without_recorder(self, sequence):
        from repro.obs.health import HealthMonitor
        mon = HealthMonitor()
        SLAMSystem(
            "splatam", mode="sparse",
            splatonic_config=SplatonicConfig(tracking_tile=8)).run(
                sequence, n_frames=4, observers=[mon])
        # The stream was watched (state advanced) even with no recorder.
        assert mon._last_position is not None
        assert mon.alerts == []
