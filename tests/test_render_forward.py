"""Tile-pipeline forward pass: projection, tiles, sorting, compositing."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.render import (
    ALPHA_THRESHOLD,
    RADIUS_SIGMA,
    TileGrid,
    build_intersection_table,
    composite_forward,
    project_gaussians,
    render_full,
    sort_by_depth,
    sort_intersection_table,
)
from repro.render.tiles import IntersectionTable


def make_scene(n=50, seed=0, z_range=(1.0, 5.0)):
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud.create(
        means=np.stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n),
                        rng.uniform(*z_range, n)], axis=-1),
        scales=rng.uniform(0.03, 0.3, n),
        opacities=rng.uniform(0.1, 0.95, n),
        colors=rng.uniform(0, 1, (n, 3)),
    )
    cam = Camera(Intrinsics.from_fov(48, 36, 75.0))
    return cloud, cam


class TestProjection:
    def test_culls_behind_camera(self):
        cloud, cam = make_scene()
        behind = GaussianCloud.create(
            means=np.array([[0.0, 0.0, -1.0]]), scales=np.array([0.1]),
            opacities=np.array([0.5]), colors=np.zeros((1, 3)))
        proj = project_gaussians(cloud.extend(behind), cam)
        assert len(cloud) not in proj.source_index  # the appended index

    def test_culls_far_offscreen(self):
        cam = Camera(Intrinsics.from_fov(48, 36, 75.0))
        offscreen = GaussianCloud.create(
            means=np.array([[100.0, 0.0, 2.0]]), scales=np.array([0.05]),
            opacities=np.array([0.5]), colors=np.zeros((1, 3)))
        assert len(project_gaussians(offscreen, cam)) == 0

    def test_keeps_visible(self):
        cam = Camera(Intrinsics.from_fov(48, 36, 75.0))
        visible = GaussianCloud.create(
            means=np.array([[0.0, 0.0, 2.0]]), scales=np.array([0.05]),
            opacities=np.array([0.5]), colors=np.zeros((1, 3)))
        proj = project_gaussians(visible, cam)
        assert len(proj) == 1
        assert np.allclose(proj.mean2d[0], [24.0, 18.0])

    def test_sigma_scales_inverse_depth(self):
        cam = Camera(Intrinsics.from_fov(48, 36, 75.0))
        cloud = GaussianCloud.create(
            means=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]),
            scales=np.array([0.1, 0.1]),
            opacities=np.array([0.5, 0.5]), colors=np.zeros((2, 3)))
        proj = project_gaussians(cloud, cam)
        assert np.isclose(proj.sigma2d[0], 2 * proj.sigma2d[1])

    def test_radius_is_truncation_sigma(self):
        cloud, cam = make_scene()
        proj = project_gaussians(cloud, cam)
        assert np.allclose(proj.radius, RADIUS_SIGMA * proj.sigma2d)

    def test_bbox_conservative_for_alpha_threshold(self):
        """A pair outside the bbox can never pass the default alpha check:
        this is the invariant that makes the two pipelines pixel-exact."""
        worst_alpha = np.exp(-RADIUS_SIGMA ** 2 / 2.0)  # opacity = 1
        assert worst_alpha < ALPHA_THRESHOLD

    def test_source_index_maps_back(self):
        cloud, cam = make_scene()
        proj = project_gaussians(cloud, cam)
        assert np.allclose(proj.depth,
                           cam.world_to_camera(cloud.means)[proj.source_index, 2])


class TestTiles:
    def test_grid_counts(self):
        grid = TileGrid(width=48, height=36, tile_size=16)
        assert grid.tiles_x == 3 and grid.tiles_y == 3
        assert grid.num_tiles == 9

    def test_partial_tiles(self):
        grid = TileGrid(width=20, height=10, tile_size=16)
        assert grid.tiles_x == 2 and grid.tiles_y == 1
        u0, v0, u1, v1 = grid.tile_bounds(1)
        assert (u0, v0, u1, v1) == (16, 0, 20, 10)

    def test_tile_pixels_cover_image(self):
        grid = TileGrid(width=20, height=10, tile_size=16)
        seen = set()
        for t in range(grid.num_tiles):
            for u, v in grid.tile_pixels(t):
                seen.add((u, v))
        assert len(seen) == 200

    def test_tile_of_pixel(self):
        grid = TileGrid(width=48, height=36, tile_size=16)
        assert grid.tile_of_pixel(0, 0) == 0
        assert grid.tile_of_pixel(47, 35) == 8
        assert grid.tile_of_pixel(17, 3) == 1

    def test_rejects_bad_tile_size(self):
        with pytest.raises(ValueError):
            TileGrid(width=10, height=10, tile_size=0)

    def test_intersection_covers_bbox_tiles(self):
        cloud, cam = make_scene(seed=3)
        proj = project_gaussians(cloud, cam)
        grid = TileGrid.for_intrinsics(cam.intrinsics, 16)
        table = build_intersection_table(proj, grid)
        bbox = proj.bbox()
        for g in range(len(proj)):
            u = np.clip((bbox[g, 0] + bbox[g, 2]) / 2, 0, 47)
            v = np.clip((bbox[g, 1] + bbox[g, 3]) / 2, 0, 35)
            tile = int(grid.tile_of_pixel(int(u), int(v)))
            assert g in table.per_tile[tile]

    def test_pair_count_matches(self):
        cloud, cam = make_scene(seed=4)
        proj = project_gaussians(cloud, cam)
        grid = TileGrid.for_intrinsics(cam.intrinsics, 8)
        table = build_intersection_table(proj, grid)
        assert table.num_pairs == sum(len(t) for t in table.per_tile)


class TestSorting:
    def test_sorted_front_to_back(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(1, 5, 30)
        idx = np.arange(30)
        rng.shuffle(idx)
        out = sort_by_depth(idx, depth)
        assert np.all(np.diff(depth[out]) >= 0)

    def test_stable_for_ties(self):
        depth = np.array([2.0, 1.0, 2.0, 1.0])
        out = sort_by_depth(np.array([0, 1, 2, 3]), depth)
        assert list(out) == [1, 3, 0, 2]

    def test_tie_break_independent_of_input_order(self):
        """Documented guarantee: equal depths order by projected index,
        regardless of how the candidate list arrives."""
        depth = np.array([3.0, 1.5, 3.0, 1.5, 3.0, 0.5])
        expected = [5, 1, 3, 0, 2, 4]
        rng = np.random.default_rng(7)
        for _ in range(10):
            idx = np.arange(6)
            rng.shuffle(idx)
            assert list(sort_by_depth(idx, depth)) == expected

    def test_tie_break_on_subset(self):
        depth = np.array([2.0, 2.0, 2.0, 1.0])
        out = sort_by_depth(np.array([2, 0, 3]), depth)
        assert list(out) == [3, 0, 2]

    def test_empty(self):
        assert sort_by_depth(np.zeros(0, dtype=int), np.zeros(0)).size == 0

    @given(st.integers(0, 2**32 - 1), st.integers(0, 40),
           st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_table_sort_is_the_three_key_lexsort(self, seed, m, tiles):
        """One integer key ``tile·m + depth rank`` orders the table as
        ``np.lexsort((g, depth[g], tile))`` does: NaN depths last, ties
        and ±0 by index."""
        rng = np.random.default_rng(seed)
        depth = rng.choice([0.0, -0.0, 1.0, 2.5, np.nan, np.inf, -1.0],
                           m) if m else np.zeros(0)
        proj = SimpleNamespace(depth=depth)
        grid = TileGrid(16 * tiles, 16, 16)
        in_tile = rng.random((tiles, m)) < 0.6
        t, g = np.nonzero(in_tile)
        order = rng.permutation(g.size)
        table = IntersectionTable(grid, t[order], g[order])
        assert np.array_equal(
            sort_intersection_table(table, proj),
            table.gaussians[np.lexsort((table.gaussians,
                                        depth[table.gaussians],
                                        table.tiles))])

    def test_table_sorting(self):
        cloud, cam = make_scene(seed=5)
        proj = project_gaussians(cloud, cam)
        grid = TileGrid.for_intrinsics(cam.intrinsics, 16)
        table = build_intersection_table(proj, grid)
        for lst in np.split(sort_intersection_table(table, proj),
                            np.cumsum(table.tile_counts())[:-1]):
            assert np.all(np.diff(proj.depth[lst]) >= 0)


class TestCompositing:
    def _composite(self, seed=0, n=20, bg=None):
        rng = np.random.default_rng(seed)
        pixels = rng.uniform(0, 10, (4, 2))
        order = np.sort(rng.uniform(1, 5, n))
        return composite_forward(
            pixels,
            mean2d=rng.uniform(0, 10, (n, 2)),
            sigma2d=rng.uniform(0.5, 3.0, n),
            depth=order,
            opacity=rng.uniform(0.1, 0.9, n),
            color=rng.uniform(0, 1, (n, 3)),
            background=np.zeros(3) if bg is None else bg,
        )

    def test_color_is_convex_combination(self):
        color, _, sil, _ = self._composite()
        assert np.all(color >= -1e-12) and np.all(color <= 1.0 + 1e-12)
        assert np.all((sil >= 0) & (sil <= 1 + 1e-12))

    def test_silhouette_plus_transmittance_is_one(self):
        _, _, sil, cache = self._composite(seed=2)
        assert np.allclose(sil + cache.gamma_final, 1.0)

    def test_gamma_non_increasing(self):
        _, _, _, cache = self._composite(seed=3)
        assert np.all(np.diff(cache.gamma, axis=1) <= 1e-12)

    def test_background_composited_under(self):
        bg = np.array([0.2, 0.4, 0.6])
        color, _, sil, cache = self._composite(seed=4, bg=bg)
        expected = cache.color + cache.gamma_final[:, None] * bg
        assert np.allclose(color, expected)

    def test_empty_list_returns_background(self):
        bg = np.array([0.1, 0.2, 0.3])
        color, depth, sil, cache = composite_forward(
            np.array([[1.0, 1.0]]), np.zeros((0, 2)), np.zeros(0),
            np.zeros(0), np.zeros(0), np.zeros((0, 3)), bg)
        assert np.allclose(color, bg[None])
        assert depth[0] == 0 and sil[0] == 0
        assert cache.gamma_final[0] == 1.0

    def test_single_opaque_gaussian_at_centre(self):
        color, depth, sil, _ = composite_forward(
            np.array([[5.0, 5.0]]),
            mean2d=np.array([[5.0, 5.0]]),
            sigma2d=np.array([1.0]),
            depth=np.array([2.0]),
            opacity=np.array([0.8]),
            color=np.array([[1.0, 0.0, 0.0]]),
            background=np.zeros(3))
        assert np.isclose(sil[0], 0.8)
        assert np.isclose(color[0, 0], 0.8)
        assert np.isclose(depth[0], 0.8 * 2.0)

    def test_early_termination_caps_contributors(self):
        """Many opaque gaussians: transmittance collapses and later ones
        must be skipped."""
        n = 100
        color, _, sil, cache = composite_forward(
            np.array([[0.0, 0.0]]),
            mean2d=np.zeros((n, 2)),
            sigma2d=np.ones(n),
            depth=np.arange(1, n + 1, dtype=float),
            opacity=np.full(n, 0.9),
            color=np.ones((n, 3)),
            background=np.zeros(3))
        contribs = int(cache.contrib.sum())
        assert contribs < n / 2
        assert sil[0] <= 1.0

    def test_alpha_threshold_filters(self):
        _, _, sil, cache = composite_forward(
            np.array([[0.0, 0.0]]),
            mean2d=np.array([[30.0, 0.0]]),   # 30 sigma away
            sigma2d=np.array([1.0]),
            depth=np.array([1.0]),
            opacity=np.array([0.99]),
            color=np.ones((1, 3)),
            background=np.zeros(3))
        assert sil[0] == 0.0
        assert not cache.contrib.any()


class TestRenderFull:
    def test_shapes_and_ranges(self):
        cloud, cam = make_scene(seed=6, n=80)
        res = render_full(cloud, cam, np.full(3, 0.1))
        h, w = 36, 48
        assert res.color.shape == (h, w, 3)
        assert res.depth.shape == (h, w)
        assert res.silhouette.shape == (h, w)
        assert np.all(res.silhouette <= 1.0 + 1e-9)
        assert np.all(res.depth >= 0)

    def test_final_transmittance(self):
        cloud, cam = make_scene(seed=7)
        res = render_full(cloud, cam)
        assert np.allclose(res.final_transmittance, 1 - res.silhouette)

    def test_stats_counters(self):
        cloud, cam = make_scene(seed=8)
        res = render_full(cloud, cam, tile_size=16)
        s = res.stats
        assert s.pipeline == "tile"
        assert s.num_pixels == 48 * 36
        assert s.num_candidate_pairs == s.num_alpha_checks
        assert s.num_contrib_pairs <= s.num_candidate_pairs
        assert len(s.per_pixel_contribs) == s.num_pixels
        assert s.num_tile_pairs >= res.tile_counts.max()

    def test_tile_size_does_not_change_image(self):
        cloud, cam = make_scene(seed=9)
        a = render_full(cloud, cam, tile_size=8, keep_cache=False)
        b = render_full(cloud, cam, tile_size=16, keep_cache=False)
        assert np.allclose(a.color, b.color, atol=1e-12)
        assert np.allclose(a.depth, b.depth, atol=1e-12)

    def test_sparse_subset_matches_full(self):
        """Org.+S mode must produce identical values at sampled pixels."""
        cloud, cam = make_scene(seed=10, n=120)
        rng = np.random.default_rng(0)
        pixels = np.stack([rng.integers(0, 48, 30),
                           rng.integers(0, 36, 30)], axis=-1)
        full = render_full(cloud, cam, keep_cache=False)
        part = render_full(cloud, cam, pixels=pixels, keep_cache=False)
        u, v = pixels[:, 0], pixels[:, 1]
        assert np.allclose(part.color[v, u], full.color[v, u])
        assert np.allclose(part.depth[v, u], full.depth[v, u])
        assert part.stats.num_pixels == 30
        assert part.stats.num_candidate_pairs < full.stats.num_candidate_pairs

    def test_empty_cloud(self):
        cam = Camera(Intrinsics.from_fov(16, 12, 70.0))
        res = render_full(GaussianCloud.empty(), cam, np.full(3, 0.5))
        assert np.allclose(res.color, 0.5)
        assert res.stats.num_projected == 0

    def test_tile_work_recorded(self):
        cloud, cam = make_scene(seed=11)
        res = render_full(cloud, cam, tile_size=16)
        for list_len, n_px, serial_len in res.stats.tile_work:
            assert 0 < serial_len <= list_len
            assert 0 < n_px <= 16 * 16
