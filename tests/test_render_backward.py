"""Backward pass: analytic gradients versus numerical differentiation.

These are the strongest correctness tests in the repository: every
trainable quantity (means, log-scales, opacity logits, colors, camera
twist) is checked against central differences through the full pipeline.
"""

import numpy as np
import pytest

from repro.gaussians import Camera, GaussianCloud, Intrinsics, se3_exp
from repro.render import backward_full, render_full
from repro.render.backward import ProjectedGradients


def make_scene(n=25, seed=0):
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud.create(
        means=np.stack([rng.uniform(-1, 1, n), rng.uniform(-0.8, 0.8, n),
                        rng.uniform(1.2, 4, n)], axis=-1),
        scales=rng.uniform(0.05, 0.25, n),
        opacities=rng.uniform(0.2, 0.9, n),
        colors=rng.uniform(0.1, 0.9, (n, 3)),
    )
    cam = Camera(Intrinsics.from_fov(24, 18, 70.0))
    return cloud, cam


BG = np.array([0.2, 0.1, 0.3])


def loss_and_grads(cloud, cam, seed=0):
    """Random linear loss over all three channels + analytic gradients."""
    rng = np.random.default_rng(seed)
    res = render_full(cloud, cam, BG, tile_size=8)
    wc = rng.normal(size=res.color.shape)
    wd = rng.normal(size=res.depth.shape)
    ws = rng.normal(size=res.silhouette.shape)

    def loss_fn(cloud2, cam2):
        r = render_full(cloud2, cam2, BG, tile_size=8, keep_cache=False)
        return float((r.color * wc).sum() + (r.depth * wd).sum()
                     + (r.silhouette * ws).sum())

    grads = backward_full(res, cloud, cam, wc, wd, ws)
    return loss_fn, grads


class TestParameterGradients:
    def test_all_parameters_match_numerical(self):
        cloud, cam = make_scene()
        loss_fn, grads = loss_and_grads(cloud, cam)
        analytic = grads.as_cloud_vector()
        vec = cloud.pack()
        rng = np.random.default_rng(1)
        eps = 1e-6
        for i in rng.choice(len(vec), 40, replace=False):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += eps
            vm[i] -= eps
            num = (loss_fn(cloud.unpack(vp), cam)
                   - loss_fn(cloud.unpack(vm), cam)) / (2 * eps)
            denom = abs(num) + abs(analytic[i]) + 1e-5
            assert abs(num - analytic[i]) / denom < 1e-3, (
                f"param {i}: numeric {num} vs analytic {analytic[i]}")

    def test_out_of_frustum_gradient_is_zero(self):
        cloud, cam = make_scene()
        behind = GaussianCloud.create(
            means=np.array([[0.0, 0.0, -2.0]]), scales=np.array([0.1]),
            opacities=np.array([0.5]), colors=np.full((1, 3), 0.5))
        joined = cloud.extend(behind)
        _, grads = loss_and_grads(joined, cam)
        assert np.allclose(grads.d_means[-1], 0)
        assert grads.d_log_scales[-1] == 0
        assert grads.d_logit_opacities[-1] == 0

    def test_gradient_shapes(self):
        cloud, cam = make_scene(n=7)
        _, grads = loss_and_grads(cloud, cam)
        assert grads.d_means.shape == (7, 3)
        assert grads.d_log_scales.shape == (7,)
        assert grads.d_logit_opacities.shape == (7,)
        assert grads.d_colors.shape == (7, 3)
        assert grads.d_pose_twist.shape == (6,)

    def test_color_gradient_gated_outside_unit_range(self):
        """Colors are clamped at render time with a straight-through gate:
        a gradient that would push a color *further* outside [0, 1] is
        zeroed, while one pulling it back in passes through."""
        cloud, cam = make_scene(n=10, seed=3)
        cloud.colors[0] = [1.5, -0.5, 0.5]
        res = render_full(cloud, cam, BG, tile_size=8)
        n = len(cloud)
        for sign in (+1.0, -1.0):
            # Under gradient descent (param -= lr * grad), a positive
            # gradient *decreases* the parameter.  So for an over-range
            # color only positive gradients pass (they pull it back in);
            # for an under-range color only negative gradients pass.
            grads = backward_full(res, cloud, cam,
                                  sign * np.ones_like(res.color),
                                  np.zeros_like(res.depth),
                                  np.zeros_like(res.silhouette))
            g_over = grads.d_colors[0, 0]   # raw color 1.5 (above range)
            g_under = grads.d_colors[0, 1]  # raw color -0.5 (below range)
            if sign > 0:
                assert g_over >= 0.0, "inward pull on over-range passes"
                assert g_under == 0.0, "outward push on under-range is gated"
            else:
                assert g_over == 0.0, "outward push on over-range is gated"
                assert g_under <= 0.0, "inward pull on under-range passes"


class TestPoseGradient:
    def test_twist_matches_numerical(self):
        cloud, cam0 = make_scene(seed=5)
        pose = cam0.pose_c2w @ se3_exp(np.array(
            [0.03, -0.02, 0.01, 0.01, -0.005, 0.02]))
        cam = cam0.with_pose(pose)
        loss_fn, grads = loss_and_grads(cloud, cam, seed=7)
        eps = 1e-6
        for j in range(6):
            xi = np.zeros(6)
            xi[j] = eps
            lp = loss_fn(cloud, cam.with_pose(pose @ se3_exp(xi)))
            lm = loss_fn(cloud, cam.with_pose(pose @ se3_exp(-xi)))
            num = (lp - lm) / (2 * eps)
            an = grads.d_pose_twist[j]
            assert abs(num - an) / (abs(num) + abs(an) + 1e-5) < 1e-3

    def test_zero_loss_gives_zero_twist(self):
        cloud, cam = make_scene(seed=6)
        res = render_full(cloud, cam, BG, tile_size=8)
        grads = backward_full(res, cloud, cam,
                              np.zeros_like(res.color),
                              np.zeros_like(res.depth),
                              np.zeros_like(res.silhouette))
        assert np.allclose(grads.d_pose_twist, 0)
        assert np.allclose(grads.d_means, 0)


class TestAggregationStats:
    def test_atomic_adds_equal_contrib_pairs(self):
        cloud, cam = make_scene(seed=8)
        res = render_full(cloud, cam, BG, tile_size=8)
        grads = backward_full(res, cloud, cam,
                              np.ones_like(res.color),
                              np.zeros_like(res.depth),
                              np.zeros_like(res.silhouette))
        assert grads.stats.num_atomic_adds == grads.stats.num_contrib_pairs
        assert grads.stats.num_atomic_adds == res.stats.num_contrib_pairs

    def test_contrib_id_stream_matches_counts(self):
        cloud, cam = make_scene(seed=9)
        res = render_full(cloud, cam, BG, tile_size=8)
        grads = backward_full(res, cloud, cam,
                              np.ones_like(res.color),
                              np.zeros_like(res.depth),
                              np.zeros_like(res.silhouette))
        total_ids = sum(len(p) for p in grads.stats.pixel_contrib_ids)
        assert total_ids == grads.stats.num_atomic_adds

    def test_projected_gradients_zeros(self):
        pg = ProjectedGradients.zeros(4)
        assert pg.d_mean2d.shape == (4, 2)
        assert np.allclose(pg.d_sigma2d, 0)


class TestProjectedScale:
    """Projection carries the scale each splat was projected with, and
    re-projection reads it instead of re-evaluating ``exp``."""

    def test_projection_gathers_the_cloud_scales(self):
        from repro.render.projection import project_gaussians

        cloud, cam = make_scene(seed=8)
        proj = project_gaussians(cloud, cam)
        assert len(proj) > 0
        assert proj.scale.tobytes() == (
            cloud.scales[proj.source_index].tobytes())

    def test_reprojection_without_a_scale_raises(self):
        from dataclasses import replace

        from repro.render.backward import reproject_gradients
        from repro.render.projection import project_gaussians

        cloud, cam = make_scene(seed=9)
        proj = project_gaussians(cloud, cam)
        pg = ProjectedGradients.zeros(len(proj))
        for pose_only in (False, True):
            reproject_gradients(proj, cloud, cam, pg, pose_only=pose_only)
            with pytest.raises(ValueError, match="scale"):
                reproject_gradients(replace(proj, scale=None), cloud, cam,
                                    pg, pose_only=pose_only)
