"""Renderer edge cases: thresholds, tiny images, degenerate scenes."""

import re

import numpy as np
import pytest

from repro.core.pixel_pipeline import backward_sparse, render_sparse
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.render import (
    AnisotropicCloud,
    backward_full,
    backward_sparse_anisotropic,
    render_full,
    render_sparse_anisotropic,
)

BG = np.full(3, 0.05)


def one_gaussian(z=2.0, opacity=0.8, scale=0.1):
    return GaussianCloud.create(
        means=np.array([[0.0, 0.0, z]]), scales=np.array([scale]),
        opacities=np.array([opacity]), colors=np.array([[1.0, 0.5, 0.2]]))


def render_aniso(cloud, camera, pixels, background=None):
    """The anisotropic sparse entry point on the lifted isotropic cloud."""
    return render_sparse_anisotropic(AnisotropicCloud.from_isotropic(cloud),
                                     camera, pixels, background)


class TestThresholds:
    def test_high_alpha_threshold_drops_faint_splats(self):
        cloud = one_gaussian(opacity=0.05)
        cam = Camera(Intrinsics.from_fov(16, 12, 70.0))
        strict = render_full(cloud, cam, BG, alpha_threshold=0.1,
                             keep_cache=False)
        assert np.allclose(strict.silhouette, 0.0)
        lax = render_full(cloud, cam, BG, alpha_threshold=0.001,
                          keep_cache=False)
        assert lax.silhouette.max() > 0.0

    def test_t_min_controls_early_termination(self):
        """A stack of opaque splats: higher t_min terminates earlier."""
        n = 30
        cloud = GaussianCloud.create(
            means=np.tile([0.0, 0.0, 0.0], (n, 1))
            + np.stack([np.zeros(n), np.zeros(n),
                        np.linspace(1, 3, n)], axis=-1),
            scales=np.full(n, 0.3),
            opacities=np.full(n, 0.9),
            colors=np.ones((n, 3)))
        cam = Camera(Intrinsics.from_fov(16, 12, 70.0))
        eager = render_full(cloud, cam, BG, t_min=1e-1, keep_cache=False)
        lazy = render_full(cloud, cam, BG, t_min=1e-8, keep_cache=False)
        assert (eager.stats.num_contrib_pairs
                < lazy.stats.num_contrib_pairs)

    def test_thresholds_consistent_across_pipelines(self):
        rng = np.random.default_rng(0)
        n = 40
        cloud = GaussianCloud.create(
            means=np.stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                            rng.uniform(1, 4, n)], axis=-1),
            scales=rng.uniform(0.05, 0.3, n),
            opacities=rng.uniform(0.1, 0.9, n),
            colors=rng.uniform(0, 1, (n, 3)))
        cam = Camera(Intrinsics.from_fov(24, 18, 70.0))
        px = np.array([[12, 9], [5, 5], [20, 14]])
        for thr, tmin in [(0.02, 1e-3), (0.004, 1e-5)]:
            full = render_full(cloud, cam, BG, alpha_threshold=thr,
                               t_min=tmin, keep_cache=False)
            sparse = render_sparse(cloud, cam, px, BG, alpha_threshold=thr,
                                   t_min=tmin)
            u, v = px[:, 0], px[:, 1]
            assert np.allclose(sparse.color, full.color[v, u], atol=1e-12)


class TestTinyImages:
    def test_one_pixel_image(self):
        cloud = one_gaussian()
        cam = Camera(Intrinsics(width=1, height=1, fx=10, fy=10,
                                cx=0.5, cy=0.5))
        res = render_full(cloud, cam, BG, keep_cache=False)
        assert res.color.shape == (1, 1, 3)
        assert res.silhouette[0, 0] > 0.0

    def test_image_smaller_than_tile(self):
        cloud = one_gaussian()
        cam = Camera(Intrinsics.from_fov(5, 3, 70.0))
        res = render_full(cloud, cam, BG, tile_size=16, keep_cache=False)
        assert res.color.shape == (3, 5, 3)
        assert res.grid.num_tiles == 1


class TestDegenerateScenes:
    def test_gaussian_exactly_at_near_plane(self):
        cloud = one_gaussian(z=0.01)
        cam = Camera(Intrinsics.from_fov(16, 12, 70.0))
        res = render_full(cloud, cam, BG, keep_cache=False)  # must not raise
        assert np.all(np.isfinite(res.color))

    def test_huge_gaussian_covers_frame(self):
        cloud = one_gaussian(scale=5.0, opacity=0.9)
        cam = Camera(Intrinsics.from_fov(16, 12, 70.0))
        res = render_full(cloud, cam, BG, keep_cache=False)
        assert np.all(res.silhouette > 0.5)

    def test_all_gaussians_behind(self):
        cloud = one_gaussian(z=-3.0)
        cam = Camera(Intrinsics.from_fov(16, 12, 70.0))
        res = render_full(cloud, cam, BG, keep_cache=False)
        assert np.allclose(res.color, BG)

    def test_duplicate_gaussians_composite_in_order(self):
        """Two identical splats at the same depth: stable order, finite."""
        base = one_gaussian()
        cloud = base.extend(base)
        cam = Camera(Intrinsics.from_fov(16, 12, 70.0))
        res = render_full(cloud, cam, BG, keep_cache=False)
        assert np.all(np.isfinite(res.color))
        single = render_full(base, cam, BG, keep_cache=False)
        assert res.silhouette.max() > single.silhouette.max()

    def test_nonsquare_pixels(self):
        intr = Intrinsics(width=20, height=16, fx=30.0, fy=15.0,
                          cx=10.0, cy=8.0)
        cloud = one_gaussian()
        res = render_full(cloud, Camera(intr), BG, keep_cache=False)
        assert np.all(np.isfinite(res.color))


class TestPaddingIsInert:
    """Composite rows are padded to the longest pair list.  A padded cell
    must read zeros, not some splat's values: one non-finite splat may
    only reach the pixels whose pair list holds it."""

    W, H = 16, 12

    def scene(self, color0):
        rng = np.random.default_rng(3)
        n = 40
        means = np.stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-1.0, 1.0, n),
                          rng.uniform(2.0, 5.0, n)], axis=-1)
        means[0] = [0.3, -0.2, 1.5]
        colors = rng.uniform(0, 1, (n, 3))
        colors[0] = color0
        scales = rng.uniform(0.05, 0.3, n)
        scales[0] = 0.05
        cloud = GaussianCloud.create(means=means, scales=scales,
                                     opacities=rng.uniform(0.2, 0.9, n),
                                     colors=colors)
        return cloud, Camera(Intrinsics.from_fov(self.W, self.H, 70.0))

    @staticmethod
    def holds_splat_0(pixels, caches, shape):
        """(H, W) mask: the pixel's composited pair list holds projected
        Gaussian 0."""
        mask = np.zeros(shape, dtype=bool)
        for px, fc in zip(pixels, caches):
            rows = np.repeat(np.arange(fc.lengths.size),
                             fc.lengths)[fc.gss == 0]
            mask[px[rows, 1], px[rows, 0]] = True
        return mask

    @pytest.mark.parametrize("pipeline", ["tile", "pixel"])
    def test_nan_splat_stays_in_its_pixels(self, pipeline):
        u, v = np.meshgrid(np.arange(self.W), np.arange(self.H))
        pixels = np.stack([u.ravel(), v.ravel()], axis=-1)
        out = {}
        for name, color0 in (("clean", [0.3, 0.6, 0.9]),
                             ("poisoned", [np.nan, 0.6, 0.9])):
            cloud, cam = self.scene(color0)
            if pipeline == "tile":
                res = render_full(cloud, cam, BG)
                caches = [(res.pixels, res.cache)]
                color = res.color
            else:
                res = render_sparse(cloud, cam, pixels, BG)
                caches = [(pixels, res.flat_cache)]
                color = res.color.reshape(self.H, self.W, 3)
            assert res.proj.source_index[0] == 0
            out[name] = color, caches
        (clean, _), (poisoned, caches) = out["clean"], out["poisoned"]
        holds = self.holds_splat_0(*zip(*caches), (self.H, self.W))
        assert 0 < holds.sum() < holds.size
        assert np.isnan(poisoned[holds]).any()
        assert np.array_equal(poisoned[~holds], clean[~holds])
        assert np.all(np.isfinite(poisoned[~holds]))


class TestEmptyPixelSets:
    """An empty pixel list (``[]`` has shape ``(0,)``, not ``(0, 2)``)
    renders nothing and back-propagates all-zero gradients."""

    GRAD_FIELDS = ("d_means", "d_log_scales", "d_logit_opacities",
                   "d_colors", "d_pose_twist")

    def assert_zero_gradients(self, grads, n):
        assert grads.d_means.shape == (n, 3)
        for name in self.GRAD_FIELDS:
            assert not np.any(getattr(grads, name)), name

    def test_sparse_pipeline(self):
        cloud = one_gaussian()
        cam = Camera(Intrinsics.from_fov(16, 12, 70.0))
        res = render_sparse(cloud, cam, [], BG)
        assert res.pixels.shape == (0, 2)
        assert res.color.shape == (0, 3)
        assert res.depth.shape == res.silhouette.shape == (0,)
        assert res.pixel_lists == []
        assert res.stats.num_candidate_pairs == 0
        grads = backward_sparse(res, cloud, cam, np.zeros((0, 3)),
                                np.zeros(0), np.zeros(0))
        self.assert_zero_gradients(grads, len(cloud))
        assert grads.stats.num_atomic_adds == 0

    def test_anisotropic_pipeline(self):
        """A flat ``np.zeros(0)`` is K = 0, not one pixel of shape (0,)."""
        cloud = AnisotropicCloud.from_isotropic(one_gaussian())
        cam = Camera(Intrinsics.from_fov(16, 12, 70.0))
        res = render_sparse_anisotropic(cloud, cam, np.zeros(0), BG)
        assert res.pixels.shape == (0, 2)
        assert res.color.shape == (0, 3)
        assert res.stats.num_pixels == 0
        grads = backward_sparse_anisotropic(res, cloud, cam, np.zeros((0, 3)),
                                            np.zeros(0), np.zeros(0))
        self.assert_zero_gradients(grads, len(cloud))
        assert not np.any(grads.d_quaternions)
        assert grads.stats.num_atomic_adds == 0

    def test_tile_pipeline(self):
        cloud = one_gaussian()
        cam = Camera(Intrinsics.from_fov(16, 12, 70.0))
        res = render_full(cloud, cam, BG, pixels=[])
        assert res.pixels.shape == (0, 2)
        assert res.cache is None and res.slots.size == 0
        assert np.array_equal(res.color, np.tile(BG, (12, 16, 1)))
        assert not np.any(res.depth) and not np.any(res.silhouette)
        assert res.stats.num_pixels == 0
        assert res.stats.num_contrib_pairs == 0
        grads = backward_full(res, cloud, cam, np.ones((12, 16, 3)),
                              np.ones((12, 16)), np.ones((12, 16)))
        self.assert_zero_gradients(grads, len(cloud))
        assert grads.stats.num_atomic_adds == 0


class TestOutOfImagePixels:
    """Every entry point rejects a pixel outside the image, naming the first
    offender, instead of wrapping a negative index, raising a bare
    IndexError or compositing an invisible point."""

    cam = Camera(Intrinsics.from_fov(64, 48, 70.0))

    @pytest.mark.parametrize("render", [render_full, render_sparse,
                                        render_aniso])
    @pytest.mark.parametrize("pixel", [(-1, 0), (0, -1), (64, 0), (0, 48),
                                       (64, 48), (-5, 100)])
    def test_rejected(self, render, pixel):
        """Negative ``u`` or ``v`` and one past either edge: the unsigned
        bounds compare lets none through, and the message names it."""
        with pytest.raises(ValueError, match=re.escape(
                f"pixel {pixel} lies outside the 64x48 image")):
            render(one_gaussian(), self.cam, pixels=[[3, 4], list(pixel)])

    @pytest.mark.parametrize("render", [render_full, render_sparse,
                                        render_aniso])
    def test_names_first_offender(self, render):
        """Rows 2 and 5 lie outside: the message names row 2."""
        pixels = [[0, 0], [70, 2], [3, 4], [63, 47], [-1, 0]]
        with pytest.raises(ValueError, match=r"pixel \(70, 2\) lies outside "
                                             r"the 64x48 image"):
            render(one_gaussian(), self.cam, pixels=pixels)

    def test_negative_index_no_longer_wraps(self):
        """(-1, 0) used to render pixel (63, 0) silently."""
        with pytest.raises(ValueError):
            render_full(one_gaussian(), self.cam, pixels=[[-1, 0]])

    def test_corner_pixels_accepted(self):
        corners = np.array([[0, 0], [63, 0], [0, 47], [63, 47]])
        full = render_full(one_gaussian(), self.cam, BG, keep_cache=False)
        subset = render_full(one_gaussian(), self.cam, BG, pixels=corners,
                             keep_cache=False)
        sparse = render_sparse(one_gaussian(), self.cam, corners, BG)
        aniso = render_aniso(one_gaussian(), self.cam, corners, BG)
        assert np.allclose(aniso.color, sparse.color, atol=8e-3)
        u, v = corners[:, 0], corners[:, 1]
        assert np.array_equal(subset.color[v, u], full.color[v, u])
        assert np.array_equal(sparse.color, full.color[v, u])


class TestSparseCulledPairs:
    """Sparse renders whose candidate cull is empty or clipped at the
    image border."""

    W, H = 48, 36
    GRAD_FIELDS = TestEmptyPixelSets.GRAD_FIELDS

    def camera(self):
        return Camera(Intrinsics.from_fov(self.W, self.H, 75.0))

    def random_pixels(self, k=40):
        rng = np.random.default_rng(0)
        return np.stack([rng.integers(0, self.W, k),
                         rng.integers(0, self.H, k)], axis=-1)

    def test_far_offscreen_cloud(self):
        """In depth range but projecting far outside the image."""
        rng = np.random.default_rng(4)
        n = 60
        cloud = GaussianCloud.create(
            means=np.stack([rng.uniform(40, 50, n), rng.uniform(40, 50, n),
                            rng.uniform(1.0, 3.0, n)], axis=-1),
            scales=rng.uniform(0.03, 0.1, n),
            opacities=rng.uniform(0.3, 0.9, n),
            colors=rng.uniform(0, 1, (n, 3)),
        )
        res = render_sparse(cloud, self.camera(), self.random_pixels(), BG)
        assert res.stats.num_candidate_pairs == 0
        assert np.array_equal(res.color, np.tile(BG, (40, 1)))
        assert not np.any(res.silhouette)

    def test_border_clamped_bboxes(self):
        """Gaussians straddling the image border, pixels along the edge:
        the sparse path matches the dense one there, forward and
        backward."""
        rng = np.random.default_rng(8)
        n = 50
        # Means aimed at the image-plane border in camera space.
        xs = np.concatenate([rng.uniform(-2.6, -2.2, n // 2),
                             rng.uniform(2.2, 2.6, n - n // 2)])
        cloud = GaussianCloud.create(
            means=np.stack([xs, rng.uniform(-1.9, 1.9, n),
                            np.full(n, 2.0)], axis=-1),
            scales=rng.uniform(0.1, 0.4, n),
            opacities=rng.uniform(0.3, 0.9, n),
            colors=rng.uniform(0, 1, (n, 3)),
        )
        cam = self.camera()
        W, H = self.W, self.H
        border = np.array([[0, 0], [W - 1, 0], [0, H - 1], [W - 1, H - 1],
                           [0, H // 2], [W - 1, H // 2], [W // 2, 0],
                           [W // 2, H - 1]])
        sparse = render_sparse(cloud, cam, border, BG)
        dense = render_full(cloud, cam, BG, pixels=border)
        u, v = border[:, 0], border[:, 1]
        assert sparse.stats.num_contrib_pairs > 0
        assert np.array_equal(sparse.color, dense.color[v, u])
        assert np.array_equal(sparse.depth, dense.depth[v, u])
        assert np.array_equal(sparse.silhouette, dense.silhouette[v, u])
        k = len(border)
        g_sparse = backward_sparse(sparse, cloud, cam, np.ones((k, 3)),
                                   np.ones(k), np.ones(k))
        d_color = np.zeros((H, W, 3))
        d_depth = np.zeros((H, W))
        d_color[v, u] = 1.0
        d_depth[v, u] = 1.0
        g_dense = backward_full(dense, cloud, cam, d_color, d_depth,
                                d_depth.copy())
        for name in self.GRAD_FIELDS:
            assert np.allclose(getattr(g_sparse, name),
                               getattr(g_dense, name)), name

    def test_pixels_outside_every_bbox(self):
        """A visible cloud, but no bbox covers the sampled pixels: no
        pairs, background colour and zero gradients."""
        rng = np.random.default_rng(12)
        n = 30
        cloud = GaussianCloud.create(
            means=np.stack([rng.uniform(-0.1, 0.1, n),
                            rng.uniform(-0.1, 0.1, n),
                            rng.uniform(2.0, 3.0, n)], axis=-1),
            scales=np.full(n, 0.01),
            opacities=rng.uniform(0.3, 0.9, n),
            colors=rng.uniform(0, 1, (n, 3)),
        )
        cam = self.camera()
        corners = np.array([[0, 0], [self.W - 1, self.H - 1]])
        res = render_sparse(cloud, cam, corners, BG)
        assert res.stats.num_projected > 0
        assert res.stats.num_candidate_pairs == 0
        assert np.array_equal(res.color, np.tile(BG, (2, 1)))
        grads = backward_sparse(res, cloud, cam, np.ones((2, 3)),
                                np.ones(2), np.ones(2))
        for name in self.GRAD_FIELDS:
            assert not np.any(getattr(grads, name)), name
