"""Tracker, mapper, keyframes, and algorithm configs."""

import numpy as np
import pytest

from repro.core import Splatonic, SplatonicConfig
from repro.datasets import make_replica_sequence
from repro.gaussians import Camera, se3_exp, se3_inverse, se3_log
from repro.metrics import psnr
from repro.render import render_full
from repro.slam import (
    ALGORITHMS,
    SPLATAM,
    Keyframe,
    KeyframeBuffer,
    Mapper,
    Tracker,
    get_algorithm,
)

BG = np.full(3, 0.05)


@pytest.fixture(scope="module")
def scene():
    seq = make_replica_sequence("room0", n_frames=4, width=64, height=48,
                                surface_density=10)
    return seq


class TestAlgorithmConfigs:
    def test_registry_has_four(self):
        assert set(ALGORITHMS) == {"splatam", "monogs", "gsslam", "flashslam"}

    def test_lookup(self):
        assert get_algorithm("splatam").name == "splatam"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_algorithm("orb-slam")

    def test_mapping_cadence_in_paper_range(self):
        for cfg in ALGORITHMS.values():
            assert 4 <= cfg.map_every <= 8, "paper: mapping every 4-8 frames"

    def test_with_overrides(self):
        cfg = SPLATAM.with_overrides(tracking_iters=5)
        assert cfg.tracking_iters == 5
        assert SPLATAM.tracking_iters != 5


class TestTracker:
    def test_recovers_perturbed_pose_sparse(self, scene):
        frame = scene[1]
        rng = np.random.default_rng(0)
        xi = rng.normal(0, 0.02, 6)
        init = frame.gt_pose_c2w @ se3_exp(xi)
        tracker = Tracker(SPLATAM, scene.intrinsics,
                          Splatonic(SplatonicConfig(tracking_tile=8),
                                    rng=np.random.default_rng(0)),
                          "sparse", BG)
        res = tracker.track_frame(scene.gt_cloud, init, frame.color,
                                  frame.depth)
        err = np.linalg.norm(se3_log(
            se3_inverse(frame.gt_pose_c2w) @ res.pose_c2w))
        assert err < np.linalg.norm(xi) / 3, "tracking must reduce pose error"

    def test_recovers_perturbed_pose_dense(self, scene):
        frame = scene[1]
        xi = np.array([0.02, -0.01, 0.015, 0.005, -0.01, 0.008])
        init = frame.gt_pose_c2w @ se3_exp(xi)
        tracker = Tracker(SPLATAM.with_overrides(tracking_iters=30),
                          scene.intrinsics, Splatonic(), "dense", BG)
        res = tracker.track_frame(scene.gt_cloud, init, frame.color,
                                  frame.depth)
        err = np.linalg.norm(se3_log(
            se3_inverse(frame.gt_pose_c2w) @ res.pose_c2w))
        assert err < np.linalg.norm(xi)

    def test_already_converged_stays(self, scene):
        frame = scene[1]
        tracker = Tracker(SPLATAM, scene.intrinsics,
                          Splatonic(rng=np.random.default_rng(1)),
                          "sparse", BG)
        res = tracker.track_frame(scene.gt_cloud, frame.gt_pose_c2w,
                                  frame.color, frame.depth)
        err = np.linalg.norm(se3_log(
            se3_inverse(frame.gt_pose_c2w) @ res.pose_c2w))
        assert err < 0.01

    def test_stats_accumulated(self, scene):
        frame = scene[1]
        tracker = Tracker(SPLATAM.with_overrides(tracking_iters=5),
                          scene.intrinsics,
                          Splatonic(rng=np.random.default_rng(2)),
                          "sparse", BG)
        res = tracker.track_frame(scene.gt_cloud, frame.gt_pose_c2w,
                                  frame.color, frame.depth)
        assert res.forward_stats.num_pixels > 0
        assert res.backward_stats.num_atomic_adds >= 0
        assert res.iterations >= 1

    def test_fixed_pixels_replace_sampling(self, scene):
        """``pixels=`` runs the same loop on a caller-chosen pixel set:
        passing the set the tracker would draw changes nothing."""
        frame = scene[1]
        init = frame.gt_pose_c2w @ se3_exp(np.full(6, 0.01))

        def tracker():
            return Tracker(SPLATAM.with_overrides(tracking_iters=5),
                           scene.intrinsics,
                           Splatonic(rng=np.random.default_rng(3)),
                           "sparse", BG)

        sampled = tracker().track_frame(scene.gt_cloud, init, frame.color,
                                        frame.depth)
        fixed = tracker()
        pixels = fixed.splatonic.sample_tracking(
            Camera(scene.intrinsics, init), image=frame.color)
        given = fixed.track_frame(scene.gt_cloud, init, frame.color,
                                  frame.depth, pixels=pixels)
        assert np.array_equal(given.pose_c2w, sampled.pose_c2w)
        assert given.final_loss == sampled.final_loss
        assert (given.backward_stats.as_dict()
                == sampled.backward_stats.as_dict())

    @pytest.mark.parametrize("max_iters", [None, 5])
    def test_forward_only_line_search_accounting(self, scene, max_iters):
        """Every forward is one iteration, only accepted points pay for a
        backward, and the frame returns its lowest-loss pose, rigid."""
        frame = scene[1]
        init = frame.gt_pose_c2w @ se3_exp(np.full(6, 0.01))
        splatonic = Splatonic(SplatonicConfig(tracking_tile=8),
                              rng=np.random.default_rng(0))
        calls = {"render_sparse": 0, "backward_sparse": 0}
        for name in calls:
            real = getattr(splatonic, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            setattr(splatonic, name, counted)
        algo = (SPLATAM if max_iters is None
                else SPLATAM.with_overrides(tracking_iters=max_iters))
        tracker = Tracker(algo, scene.intrinsics, splatonic, "sparse", BG)
        res = tracker.track_frame(scene.gt_cloud, init, frame.color,
                                  frame.depth, collect_curve=True)
        assert res.final_loss == min(res.loss_curve)
        assert len(res.loss_curve) == res.iterations
        assert (calls["backward_sparse"] < calls["render_sparse"]
                == res.iterations <= (max_iters or SPLATAM.tracking_iters))
        R = res.pose_c2w[:3, :3]
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
        assert np.linalg.det(R) > 0
        assert np.array_equal(res.pose_c2w[3], [0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("offset,short", [(1e-4, True), (5e-2, False)])
    def test_opening_step_sized_by_the_loss(self, scene, offset, short):
        """The first trial lies ``min(1e-2, 2 * loss / |g|)`` from the
        prior: short when the prior is 0.01 cm off, the full 1e-2 when
        it is 5 cm off."""
        frame = scene[1]
        direction = np.array([1.0, -0.5, 0.7, 0.0, 0.0, 0.0])
        init = frame.gt_pose_c2w @ se3_exp(
            offset / np.linalg.norm(direction) * direction)
        splatonic = Splatonic(SplatonicConfig(tracking_tile=8),
                              rng=np.random.default_rng(0))
        poses, grads = [], []
        render, backward = splatonic.render_sparse, splatonic.backward_sparse

        def rendered(cloud, camera, *args, **kwargs):
            poses.append(camera.pose_c2w.copy())
            return render(cloud, camera, *args, **kwargs)

        def backwarded(*args, **kwargs):
            out = backward(*args, **kwargs)
            grads.append(out.d_pose_twist.copy())
            return out

        splatonic.render_sparse = rendered
        splatonic.backward_sparse = backwarded
        tracker = Tracker(SPLATAM, scene.intrinsics, splatonic, "sparse", BG)
        res = tracker.track_frame(scene.gt_cloud, init, frame.color,
                                  frame.depth, collect_curve=True)
        assert np.array_equal(poses[0], init)
        opening = np.linalg.norm(se3_log(se3_inverse(init) @ poses[1]))
        expected = min(1e-2, 2.0 * res.loss_curve[0]
                       / np.linalg.norm(grads[0]))
        assert opening == pytest.approx(expected, rel=1e-9)
        if short:
            assert opening < 1e-3
        else:
            assert opening == pytest.approx(1e-2, rel=1e-9)

    def test_fixed_pixels_need_sparse_mode(self, scene):
        frame = scene[1]
        tracker = Tracker(SPLATAM, scene.intrinsics, Splatonic(), "dense", BG)
        with pytest.raises(ValueError, match="sparse"):
            tracker.track_frame(scene.gt_cloud, frame.gt_pose_c2w,
                                frame.color, frame.depth,
                                pixels=np.array([[1, 1]]))

    def test_invalid_mode(self, scene):
        with pytest.raises(ValueError):
            Tracker(SPLATAM, scene.intrinsics, Splatonic(), "hybrid")

    def test_sparse_requires_splatonic(self, scene):
        with pytest.raises(ValueError):
            Tracker(SPLATAM, scene.intrinsics, None, "sparse")


class TestMapper:
    def test_optimization_improves_frame(self, scene):
        frame = scene[0]
        kf = Keyframe(0, frame.gt_pose_c2w, frame.color, frame.depth)
        # Start from a degraded copy of the GT cloud.
        cloud = scene.gt_cloud.copy()
        rng = np.random.default_rng(0)
        cloud.colors = np.clip(
            cloud.colors + rng.normal(0, 0.15, cloud.colors.shape), 0, 1)
        cam = Camera(scene.intrinsics, frame.gt_pose_c2w)
        before = psnr(render_full(cloud, cam, BG, keep_cache=False).color,
                      frame.color)
        mapper = Mapper(SPLATAM.with_overrides(mapping_iters=12),
                        scene.intrinsics,
                        Splatonic(rng=np.random.default_rng(0)),
                        "sparse", BG)
        result = mapper.map_frame(cloud, kf, [kf])
        after = psnr(render_full(result.cloud, cam, BG,
                                 keep_cache=False).color, frame.color)
        assert after > before

    def test_densify_adds_gaussians_for_unseen(self, scene):
        frame = scene[0]
        kf = Keyframe(0, frame.gt_pose_c2w, frame.color, frame.depth)
        mapper = Mapper(SPLATAM, scene.intrinsics,
                        Splatonic(rng=np.random.default_rng(0)),
                        "sparse", BG)
        gamma = np.zeros(frame.depth.shape)
        gamma[:8, :8] = 0.9  # unseen corner
        cloud = scene.gt_cloud
        grown = mapper.densify(cloud, kf, gamma)
        assert len(grown) == len(cloud) + 64

    def test_densify_noop_when_all_seen(self, scene):
        frame = scene[0]
        kf = Keyframe(0, frame.gt_pose_c2w, frame.color, frame.depth)
        mapper = Mapper(SPLATAM, scene.intrinsics, Splatonic(), "sparse", BG)
        grown = mapper.densify(scene.gt_cloud, kf,
                               np.zeros(frame.depth.shape))
        assert len(grown) == len(scene.gt_cloud)

    def test_prunes_collapsed_gaussians(self, scene):
        frame = scene[0]
        kf = Keyframe(0, frame.gt_pose_c2w, frame.color, frame.depth)
        cloud = scene.gt_cloud.copy()
        cloud.logit_opacities[:5] = -12.0  # effectively transparent
        mapper = Mapper(SPLATAM.with_overrides(mapping_iters=1),
                        scene.intrinsics,
                        Splatonic(rng=np.random.default_rng(0)),
                        "sparse", BG)
        result = mapper.map_frame(cloud, kf, [kf])
        assert result.num_pruned >= 5


class TestTextureWeightMemo:
    """Keyframe colors never change, so the Sobel texture weight is
    memoized on the keyframe — and must leave the drawn mapping sample
    sets bit-identical to an on-the-fly recompute."""

    def test_memoized_weight_matches_recompute(self, scene):
        from repro.core.features import sobel_magnitude

        frame = scene[0]
        kf = Keyframe(0, frame.gt_pose_c2w, frame.color, frame.depth)
        assert np.array_equal(kf.texture_weight(),
                              sobel_magnitude(frame.color))

    def test_weight_cached_on_keyframe(self, scene):
        frame = scene[0]
        kf = Keyframe(0, frame.gt_pose_c2w, frame.color, frame.depth)
        first = kf.texture_weight()
        assert kf.texture_weight() is first  # no recompute

    def test_sample_sets_identical_cached_vs_recomputed(self, scene):
        frame = scene[0]
        kf = Keyframe(0, frame.gt_pose_c2w, frame.color, frame.depth)
        gamma = np.full(frame.depth.shape, 0.4)
        fresh = Splatonic(rng=np.random.default_rng(7))
        cached = Splatonic(rng=np.random.default_rng(7))
        a = fresh.sample_mapping(gamma, frame.color)
        b = cached.sample_mapping(gamma, frame.color,
                                  weight=kf.texture_weight())
        assert np.array_equal(a.all_pixels, b.all_pixels)
        assert a.counts() == b.counts()

    def test_cache_does_not_break_membership(self, scene):
        """Dataclass equality (`kf in window`) still short-circuits on
        the index — the cache field is excluded from comparison."""
        frame = scene[0]
        kf = Keyframe(0, frame.gt_pose_c2w, frame.color, frame.depth)
        other = Keyframe(1, frame.gt_pose_c2w, frame.color, frame.depth)
        kf.texture_weight()
        assert kf in [kf, other]
        assert other in [kf, other]


class TestKeyframeBuffer:
    def test_cadence(self):
        buf = KeyframeBuffer(keyframe_every=4, window=3)
        added = [buf.maybe_add(i, np.eye(4), None, None) for i in range(9)]
        assert added == [True, False, False, False,
                         True, False, False, False, True]
        assert len(buf) == 3

    def test_select_includes_current_and_anchor(self):
        buf = KeyframeBuffer(keyframe_every=2, window=2)
        for i in range(0, 10, 2):
            buf.maybe_add(i, np.eye(4), None, None)
        current = Keyframe(11, np.eye(4), None, None)
        window = buf.select(current)
        indices = [kf.index for kf in window]
        assert 0 in indices, "anchor keyframe kept"
        assert 11 in indices, "current frame included"
        assert len(window) <= 2 + 2

    def test_select_dedupes_current(self):
        buf = KeyframeBuffer(keyframe_every=1, window=3)
        for i in range(4):
            buf.maybe_add(i, np.eye(4), None, None)
        current = buf._keyframes[-1]
        window = buf.select(current)
        assert len([kf for kf in window if kf.index == current.index]) == 1

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            KeyframeBuffer(0, 3)
        with pytest.raises(ValueError):
            KeyframeBuffer(2, 0)
