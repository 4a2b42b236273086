"""Health monitors: each detector, escalation policy, and the NaN guards."""

import numpy as np
import pytest

from repro.obs import health
from repro.obs.health import (HealthError, HealthMonitor, get_monitor,
                              set_monitor, use_monitor)
from repro.obs.metrics import MetricsRegistry


def _frame(i, *, position=(0.0, 0.0, 0.0), loss=0.01, coverage=None,
           gaussians=None, invoked=False):
    pose = np.eye(4)
    pose[:3, 3] = position
    record = {
        "type": "frame", "frame": i,
        "pose_est": pose.tolist(),
        "tracking": {"final_loss": loss},
    }
    if coverage is not None or invoked:
        record["mapping"] = {"invoked": invoked, "final_loss": loss,
                             "sampling": ({} if coverage is None
                                          else {"unseen_coverage": coverage})}
    if gaussians is not None:
        record["gaussians"] = gaussians
    return record


@pytest.fixture(autouse=True)
def registry(monkeypatch):
    """Alerts count into a fresh registry, not the process-wide one."""
    fresh = MetricsRegistry()
    monkeypatch.setattr(health, "metrics", fresh)
    return fresh


@pytest.fixture
def fresh_monitor(monkeypatch):
    """Monitor factory; a keyword threshold patches the module constant
    of that name for this test (``loss_window=3`` sets ``_LOSS_WINDOW``)."""
    def make(on_alert="warn", **thresholds):
        for name, value in thresholds.items():
            monkeypatch.setattr(health, f"_{name.upper()}", value)
        return HealthMonitor(on_alert)
    return make


class TestConfig:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="on_alert"):
            HealthMonitor(on_alert="panic")


class TestFiniteness:
    def test_check_finite_accepts_clean_values(self, fresh_monitor):
        mon = fresh_monitor()
        assert mon.check_finite("x", 1.0)
        assert mon.check_finite("x", [[1.0, 2.0], [3.0, 4.0]])
        assert mon.check_finite("x", np.eye(4))
        assert mon.alerts == []

    def test_check_finite_flags_nan_and_inf(self, fresh_monitor):
        mon = fresh_monitor()
        assert not mon.check_finite("loss", float("nan"))
        assert not mon.check_finite("pose", [[1.0, float("inf")]])
        assert len(mon.alerts) == 2
        assert all(a.monitor == "non_finite" for a in mon.alerts)

    def test_alerts_hit_the_metrics_registry(self, registry):
        mon = HealthMonitor()
        mon.non_finite("tracking loss", frame=3)
        assert registry.counters["health.alerts.non_finite"] == 1
        assert any("tracking loss" in w for w in registry.warnings)

    def test_observe_frame_checks_pose_and_losses(self, fresh_monitor):
        mon = fresh_monitor()
        record = _frame(0, loss=float("nan"))
        new = mon.observe_frame(record)
        assert [a.monitor for a in new] == ["non_finite"]


class TestEscalation:
    def test_raise_policy_aborts(self, fresh_monitor):
        mon = fresh_monitor(on_alert="raise")
        with pytest.raises(HealthError) as exc:
            mon.non_finite("mapping loss", frame=2)
        assert exc.value.alert.monitor == "non_finite"
        assert exc.value.alert.frame == 2

    def test_warn_policy_continues(self, fresh_monitor):
        mon = fresh_monitor()
        mon.non_finite("x")
        mon.non_finite("y")
        assert len(mon.alerts) == 2


class TestPoseJump:
    def test_smooth_trajectory_is_quiet(self, fresh_monitor):
        mon = fresh_monitor()
        for i in range(8):
            mon.observe_frame(_frame(i, position=(0.1 * i, 0.0, 0.0)))
        assert mon.alerts == []

    def test_teleport_fires_after_history_builds(self, fresh_monitor):
        mon = fresh_monitor()
        for i in range(6):
            mon.observe_frame(_frame(i, position=(0.1 * i, 0.0, 0.0)))
        new = mon.observe_frame(_frame(6, position=(50.0, 0.0, 0.0)))
        assert [a.monitor for a in new] == ["pose_jump"]
        assert new[0].frame == 6
        assert new[0].value > new[0].threshold

    def test_early_jump_is_tolerated(self, fresh_monitor):
        # With fewer than 3 observed steps there is no reliable median.
        mon = fresh_monitor()
        mon.observe_frame(_frame(0, position=(0.0, 0.0, 0.0)))
        mon.observe_frame(_frame(1, position=(50.0, 0.0, 0.0)))
        assert mon.alerts == []


class TestLossDivergence:
    def test_improving_run_is_quiet(self, fresh_monitor):
        mon = fresh_monitor()
        for i, loss in enumerate([0.5, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02]):
            mon.observe_frame(_frame(i, loss=loss))
        assert mon.alerts == []

    def test_sustained_regression_fires_once(self, fresh_monitor):
        mon = fresh_monitor(loss_window=3)
        losses = [0.10, 0.05, 0.02, 0.5, 0.6, 0.7, 0.8, 0.9]
        fired = []
        for i, loss in enumerate(losses):
            fired += mon.observe_frame(_frame(i, loss=loss))
        monitors = [a.monitor for a in fired]
        assert monitors.count("loss_divergence") == 1

    def test_single_spike_does_not_fire(self, fresh_monitor):
        mon = fresh_monitor(loss_window=3)
        for i, loss in enumerate([0.1, 0.05, 0.02, 0.9, 0.02, 0.02, 0.02]):
            mon.observe_frame(_frame(i, loss=loss))
        assert mon.alerts == []


class TestCoverage:
    def test_warmup_frames_may_be_uncovered(self, fresh_monitor):
        mon = fresh_monitor(coverage_warmup=2)
        mon.observe_frame(_frame(0, coverage=0.9, invoked=True))
        mon.observe_frame(_frame(1, coverage=0.9, invoked=True))
        assert mon.alerts == []

    def test_collapse_after_warmup_fires(self, fresh_monitor):
        mon = fresh_monitor(coverage_warmup=2)
        for i in range(2):
            mon.observe_frame(_frame(i, coverage=0.1, invoked=True))
        new = mon.observe_frame(_frame(2, coverage=0.8, invoked=True))
        assert [a.monitor for a in new] == ["coverage_collapse"]

    def test_frames_without_mapping_do_not_advance_warmup(self, fresh_monitor):
        mon = fresh_monitor(coverage_warmup=2)
        for i in range(10):
            mon.observe_frame(_frame(i))  # tracking-only frames
        mon.observe_frame(_frame(10, coverage=0.8, invoked=True))
        assert mon.alerts == []  # first mapping pass is still warm-up


class TestDensification:
    def test_steady_growth_is_quiet(self, fresh_monitor):
        mon = fresh_monitor(densify_warmup=1)
        for i, n in enumerate([100, 110, 120, 130]):
            mon.observe_frame(_frame(i, gaussians=n, invoked=True))
        assert mon.alerts == []

    def test_explosive_growth_fires(self, fresh_monitor):
        mon = fresh_monitor(densify_warmup=1)
        mon.observe_frame(_frame(0, gaussians=100, invoked=True))
        mon.observe_frame(_frame(1, gaussians=110, invoked=True))
        new = mon.observe_frame(_frame(2, gaussians=500, invoked=True))
        assert [a.monitor for a in new] == ["densify_runaway"]
        assert new[0].value == pytest.approx(500 / 110)

    def test_bootstrap_growth_is_warmup(self, fresh_monitor):
        mon = fresh_monitor(densify_warmup=2)
        mon.observe_frame(_frame(0, gaussians=10, invoked=True))
        mon.observe_frame(_frame(1, gaussians=400, invoked=True))
        assert mon.alerts == []


class TestDefaultMonitorPlumbing:
    def test_set_monitor_swaps_and_returns_previous(self, fresh_monitor):
        original = get_monitor()
        try:
            replacement = fresh_monitor()
            assert set_monitor(replacement) is original
            assert get_monitor() is replacement
        finally:
            set_monitor(original)

    def test_use_monitor_restores_on_exit(self, fresh_monitor):
        original = get_monitor()
        scoped = fresh_monitor()
        with use_monitor(scoped) as active:
            assert active is scoped
            assert get_monitor() is scoped
        assert get_monitor() is original

    def test_use_monitor_none_is_a_noop(self):
        original = get_monitor()
        with use_monitor(None) as active:
            assert active is original
        assert get_monitor() is original


class TestIterationGuards:
    """The tracker/mapper NaN guards fire even with no recorder attached."""

    @pytest.fixture()
    def scene(self):
        from repro.datasets import make_replica_sequence
        from repro.gaussians.camera import Camera
        from repro.gaussians.init import seed_from_rgbd
        seq = make_replica_sequence("room0", n_frames=2, width=24, height=18,
                                    surface_density=10)
        frame = seq[0]
        h, w = frame.depth.shape
        vs, us = np.mgrid[0:h, 0:w]
        pixels = np.stack([us.ravel(), vs.ravel()], axis=-1)
        # Dense, near-opaque seeding so the rendered silhouette clears the
        # tracking-loss validity threshold (otherwise num_valid == 0 and
        # the loop exits before the finite guard is reached).
        cloud = seed_from_rgbd(Camera(seq.intrinsics, frame.gt_pose_c2w),
                               frame.color, frame.depth, pixels,
                               initial_opacity=0.999, scale_factor=2.0)
        return seq, cloud

    def _poison(self, monkeypatch, module):
        real = module.rgbd_loss

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            out.loss = float("nan")
            return out

        monkeypatch.setattr(module, "rgbd_loss", poisoned)

    def test_tracker_guard_alerts_and_stops(self, monkeypatch, scene,
                                            fresh_monitor):
        import repro.slam.tracker as tracker_mod
        from repro.slam.config import ALGORITHMS
        seq, cloud = scene
        self._poison(monkeypatch, tracker_mod)
        mon = fresh_monitor()
        with use_monitor(mon):
            tracker = tracker_mod.Tracker(
                ALGORITHMS["splatam"], seq.intrinsics, mode="dense")
            result = tracker.track_frame(
                cloud, seq[0].gt_pose_c2w, seq[1].color, seq[1].depth)
        assert result.iterations == 1  # stopped at the first poisoned step
        assert [a.monitor for a in mon.alerts] == ["non_finite"]
        assert "tracking" in mon.alerts[0].message
        # The poisoned loss never reached the pose update.
        assert np.allclose(result.pose_c2w, seq[0].gt_pose_c2w)

    def test_mapper_guard_alerts_and_stops(self, monkeypatch, scene,
                                           fresh_monitor):
        import repro.slam.mapper as mapper_mod
        from repro.slam.config import ALGORITHMS
        from repro.slam.keyframes import Keyframe
        seq, cloud = scene
        self._poison(monkeypatch, mapper_mod)
        mon = fresh_monitor()
        with use_monitor(mon):
            mapper = mapper_mod.Mapper(
                ALGORITHMS["splatam"].with_overrides(mapping_iters=5),
                seq.intrinsics, mode="dense")
            kf = Keyframe(index=0, color=seq[0].color, depth=seq[0].depth,
                          pose_c2w=seq[0].gt_pose_c2w)
            mapper.map_frame(cloud, kf, [kf])
        assert [a.monitor for a in mon.alerts] == ["non_finite"]
        assert "mapping" in mon.alerts[0].message

    def test_guard_raise_policy_propagates(self, monkeypatch, scene,
                                           fresh_monitor):
        import repro.slam.tracker as tracker_mod
        from repro.slam.config import ALGORITHMS
        seq, cloud = scene
        self._poison(monkeypatch, tracker_mod)
        with use_monitor(fresh_monitor(on_alert="raise")):
            tracker = tracker_mod.Tracker(
                ALGORITHMS["splatam"], seq.intrinsics, mode="dense")
            with pytest.raises(HealthError):
                tracker.track_frame(cloud, seq[0].gt_pose_c2w,
                                    seq[1].color, seq[1].depth)


class TestFrameTimeSpike:
    def _timed(self, i, wall, invoked=False):
        record = _frame(i, invoked=invoked)
        record["wall_time_s"] = wall
        return record

    def test_fires_on_tracking_outlier(self, fresh_monitor):
        mon = fresh_monitor(frame_time_factor=10.0, frame_time_min_s=0.0)
        for i in range(4):
            mon.observe_frame(self._timed(i, 0.01))
        alerts = mon.observe_frame(self._timed(4, 0.5))
        assert [a.monitor for a in alerts] == ["frame_time_spike"]
        alert = alerts[0]
        assert alert.frame == 4
        assert alert.value == pytest.approx(0.5)
        assert "tracking" in alert.message
        assert "10x rolling tracking median" in alert.message

    def test_quiet_on_steady_frames(self, fresh_monitor):
        mon = fresh_monitor(frame_time_factor=10.0)
        for i in range(20):
            assert mon.observe_frame(self._timed(i, 0.01 + 0.001 * i)) == []

    def test_slow_mapping_frames_do_not_trip_the_tracking_median(
            self, fresh_monitor):
        """Mapping frames are legitimately ~10x slower than tracking-only
        frames; the rolling median is kept per frame kind so they never
        read as spikes against the tracking baseline."""
        mon = fresh_monitor(frame_time_factor=5.0, frame_time_min_s=0.0)
        for i in range(12):
            mapping = (i % 4 == 3)
            alerts = mon.observe_frame(
                self._timed(i, 0.2 if mapping else 0.01, invoked=mapping))
            assert alerts == [], f"frame {i}"

    def test_mapping_outlier_fires_against_mapping_median(self, fresh_monitor):
        mon = fresh_monitor(frame_time_factor=5.0, frame_time_min_s=0.0)
        for i in range(6):
            mon.observe_frame(self._timed(i, 0.2, invoked=True))
        alerts = mon.observe_frame(self._timed(6, 2.5, invoked=True))
        assert [a.monitor for a in alerts] == ["frame_time_spike"]
        assert "mapping" in alerts[0].message

    def test_rising_edge_alerts_once_per_episode(self, fresh_monitor):
        mon = fresh_monitor(frame_time_factor=10.0, frame_time_min_s=0.0)
        for i in range(4):
            mon.observe_frame(self._timed(i, 0.01))
        # Sustained spike: only the first spiking frame alerts...
        assert len(mon.observe_frame(self._timed(4, 1.0))) == 1
        assert mon.observe_frame(self._timed(5, 1.0)) == []
        # ...drop back to normal re-arms (the slow frames do enter the
        # rolling history, so recovery needs the median to re-settle).
        for i in range(6, 14):
            mon.observe_frame(self._timed(i, 0.01))
        assert len(mon.observe_frame(self._timed(14, 1.0))) == 1

    def test_min_floor_suppresses_fast_frame_noise(self, fresh_monitor):
        # 1 ms -> 20 ms is a 20x jump, but still under the 50 ms floor.
        mon = fresh_monitor(frame_time_factor=10.0)
        for i in range(4):
            mon.observe_frame(self._timed(i, 0.001))
        assert mon.observe_frame(self._timed(4, 0.02)) == []

    def test_factor_inf_disables(self, fresh_monitor):
        mon = fresh_monitor(frame_time_factor=float("inf"))
        for i in range(4):
            mon.observe_frame(self._timed(i, 0.01))
        assert mon.observe_frame(self._timed(4, 50.0)) == []

    def test_frames_without_wall_time_are_ignored(self, fresh_monitor):
        mon = fresh_monitor(frame_time_factor=10.0)
        for i in range(6):
            assert mon.observe_frame(_frame(i)) == []
        assert mon.observe_frame(self._timed(6, 9.0)) == []  # no history yet

    def test_needs_three_observations_before_judging(self, fresh_monitor):
        mon = fresh_monitor(frame_time_factor=10.0, frame_time_min_s=0.0)
        mon.observe_frame(self._timed(0, 0.01))
        mon.observe_frame(self._timed(1, 0.01))
        assert mon.observe_frame(self._timed(2, 5.0)) == []

    def test_alert_hits_registry_counter(self, registry, fresh_monitor):
        mon = fresh_monitor(frame_time_factor=10.0, frame_time_min_s=0.0)
        for i in range(4):
            mon.observe_frame(self._timed(i, 0.01))
        mon.observe_frame(self._timed(4, 1.0))
        assert registry.counters["health.alerts.frame_time_spike"] == 1
