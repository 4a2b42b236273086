"""End-to-end SLAM runs: trajectories, maps, stats, and accuracy floors."""

import numpy as np
import pytest

from repro.core import SplatonicConfig
from repro.datasets import make_replica_sequence
from repro.metrics.ate import ate_rmse
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
        # Unaligned, so an alignment cannot absorb a wrong heading: the
        # run must beat a camera that never moved (13.7 vs 20.5 cm when
        # this bound was set).
        static = ate_rmse(
            SLAMSystem.static_camera_baseline(sparse_result.gt_trajectory),
            sparse_result.gt_trajectory, align=False)
        assert sparse_result.ate(align=False).rmse < static.rmse

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

    def test_chained_prior_stays_rigid(self):
        """60 frames of the prior chained on its own extrapolations from
        room0's first two ground-truth poses.  Without projecting onto
        SE(3), ``max|RᵀR − I|`` grows about 2.4x a frame."""
        gt = make_replica_sequence("room0", n_frames=60, width=8, height=6,
                                   surface_density=1).gt_trajectory
        poses = [np.array(pose) for pose in gt[:2]]
        while len(poses) < len(gt):
            poses.append(SLAMSystem._constant_velocity_init(poses))
        for pose in poses:
            R = pose[:3, :3]
            assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
            assert np.linalg.det(R) > 0.0
            assert np.array_equal(pose[3], [0.0, 0.0, 0.0, 1.0])


class TestLocalization:
    def test_chained_tracking_on_the_true_map(self):
        """perfbench's ``localize_sparse``: 39 frames tracked against
        room0's ground-truth map, each from the constant-velocity prior
        of the previous estimates, with the shipped tracker."""
        from repro.slam.tracker import Tracker

        seq = make_replica_sequence("room0", n_frames=40, width=64,
                                    height=48, surface_density=10)
        system = SLAMSystem(
            "splatam", mode="sparse",
            splatonic_config=SplatonicConfig(tracking_tile=8,
                                             record_per_pixel=False))
        tracker = Tracker(system.algo, seq.intrinsics, system.splatonic,
                          system.mode, system.background)
        poses = [seq[0].gt_pose_c2w.copy()]
        for frame in list(seq)[1:]:
            init = SLAMSystem._constant_velocity_init(poses)
            poses.append(tracker.track_frame(seq.gt_cloud, init, frame.color,
                                             frame.depth).pose_c2w)
        ate = ate_rmse(np.stack(poses), seq.gt_trajectory, align=False)
        assert ate.rmse < 0.01


class TestBaselines:
    def test_constant_velocity_is_exact_on_constant_twist_room0(
            self, sequence):
        """room0's ground truth is constant-twist, so the seeded
        constant-velocity prior reproduces it: no "beats constant
        velocity" bound can hold on room0."""
        gt = sequence.gt_trajectory
        baseline = SLAMSystem.constant_velocity_baseline(gt)
        assert baseline.shape == gt.shape
        assert np.array_equal(baseline[:2], gt[:2])
        assert round(ate_rmse(baseline, gt, align=False).rmse * 100, 2) == 0.0

    def test_static_camera_holds_the_first_pose(self, sequence):
        gt = sequence.gt_trajectory
        baseline = SLAMSystem.static_camera_baseline(gt)
        assert baseline.shape == gt.shape
        assert all(np.array_equal(pose, gt[0]) for pose in baseline)
        assert ate_rmse(baseline, gt, align=False).rmse > 0.1

    def test_constant_velocity_chains_the_tracker_prior(self):
        """Built from `_constant_velocity_init`, frame by frame."""
        from repro.datasets import make_replica_sequence as make

        gt = make("room2", n_frames=6, width=32, height=24,
                  surface_density=4).gt_trajectory
        baseline = SLAMSystem.constant_velocity_baseline(gt)
        for k in range(2, len(gt)):
            assert np.array_equal(
                baseline[k],
                SLAMSystem._constant_velocity_init(list(baseline[:k])))
        assert ate_rmse(baseline, gt, align=False).rmse > 0.01


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
