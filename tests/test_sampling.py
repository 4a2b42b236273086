"""Adaptive pixel sampling: tracking strategies and the mapping sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MappingSamples,
    sample_mapping_pixels,
    sample_tracking_pixels,
    tile_origins,
    unseen_mask,
)
from repro.core.features import harris_response, sobel_magnitude
from repro.core.sampling import UNSEEN_TRANSMITTANCE, tile_argmax

from . import sampling_oracle

W, H = 64, 48


class TestTileOrigins:
    def test_counts(self):
        origins = tile_origins(W, H, 16)
        assert origins.shape == (4 * 3, 2)

    def test_partial_edge_tiles(self):
        origins = tile_origins(20, 10, 16)
        assert origins.shape == (2, 2)
        assert (16, 0) in [tuple(o) for o in origins]

    @pytest.mark.parametrize("w,h,tile", [(64, 48, 8), (45, 33, 8), (7, 5, 3),
                                          (1, 1, 1), (5, 9, 32)])
    def test_matches_meshgrid(self, w, h, tile):
        got = tile_origins(w, h, tile)
        want = sampling_oracle.tile_origins(w, h, tile)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestTrackingSampling:
    @pytest.mark.parametrize("strategy", ["random", "center", "lowres"])
    def test_one_pixel_per_tile(self, strategy):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (H, W, 3))
        px = sample_tracking_pixels(W, H, 16, strategy, rng, image=img)
        assert px.shape == ((W // 16) * (H // 16), 2)
        tiles = set()
        for u, v in px:
            assert 0 <= u < W and 0 <= v < H
            t = (u // 16, v // 16)
            assert t not in tiles, "two samples in one tile"
            tiles.add(t)

    def test_harris_one_per_tile(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (H, W, 3))
        px = sample_tracking_pixels(W, H, 16, "harris", rng, image=img)
        assert px.shape == (12, 2)

    def test_harris_requires_image(self):
        with pytest.raises(ValueError):
            sample_tracking_pixels(W, H, 16, "harris")

    def test_loss_tile_requires_loss_map(self):
        with pytest.raises(ValueError):
            sample_tracking_pixels(W, H, 16, "loss_tile")

    def test_loss_tile_budget_matches(self):
        """GauSPU-style selection renders the same number of pixels."""
        loss = np.zeros((H, W))
        loss[0:16, 0:16] = 5.0
        px = sample_tracking_pixels(W, H, 16, "loss_tile",
                                    loss_map=loss)
        assert len(px) == 12  # same budget as one-per-tile
        # All selected pixels concentrate in the high-loss tile first.
        assert np.all(px[:, 0] < 16) and np.all(px[:, 1] < 16)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            sample_tracking_pixels(W, H, 16, "bogus")

    def test_rejects_bad_tile(self):
        with pytest.raises(ValueError):
            sample_tracking_pixels(W, H, 0)

    def test_tile_row_major_order(self):
        """Index k holds the pixel of tile (k % tiles_x, k // tiles_x)."""
        px = sample_tracking_pixels(W, H, 8, "random",
                                    np.random.default_rng(2))
        tiles_x = W // 8
        for k, (u, v) in enumerate(px):
            assert u // 8 == k % tiles_x
            assert v // 8 == k // tiles_x

    @given(st.integers(1, 40), st.integers(1, 40),
           st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=30, deadline=None)
    def test_property_bounds_and_count(self, w, h, tile):
        px = sample_tracking_pixels(w, h, tile, "random",
                                    np.random.default_rng(0))
        n_tiles = (-(-w // tile)) * (-(-h // tile))
        assert len(px) == n_tiles
        assert np.all((px[:, 0] >= 0) & (px[:, 0] < w))
        assert np.all((px[:, 1] >= 0) & (px[:, 1] < h))

    def test_random_is_seeded(self):
        a = sample_tracking_pixels(W, H, 8, "random",
                                   np.random.default_rng(7))
        b = sample_tracking_pixels(W, H, 8, "random",
                                   np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_reduction_factor(self):
        """w_t = 16 gives the paper's 256x pixel reduction."""
        px = sample_tracking_pixels(256, 256, 16, "random",
                                    np.random.default_rng(0))
        assert (256 * 256) // len(px) == 256


#: ``(width, height, tile)``: whole tiles, partial edge tiles on both
#: axes, a 1x1 image, and a tile larger than the image.
GEOMETRIES = [(64, 48, 8), (64, 48, 16), (45, 33, 8), (7, 5, 3), (1, 1, 1),
              (1, 1, 8), (20, 10, 16), (5, 9, 32)]


def _state(rng):
    return rng.bit_generator.state


class TestRandomMatchesScalarLoop:
    """One array-bound draw replays the per-tile scalar loop: the same
    pixels, dtype, generator state after, and next draw."""

    def _check(self, w, h, tile, seed, draws=3):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            got = sample_tracking_pixels(w, h, tile, "random", new)
            want = sampling_oracle.random_pixels(w, h, tile, old)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert _state(new) == _state(old)
        assert new.integers(1 << 62) == old.integers(1 << 62)

    @pytest.mark.parametrize("w,h,tile", GEOMETRIES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
    def test_geometries(self, w, h, tile, seed):
        self._check(w, h, tile, seed)

    @given(st.integers(1, 70), st.integers(1, 70), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_property(self, w, h, tile, seed):
        self._check(w, h, tile, seed, draws=1)

    def test_shipped_draw_is_pinned(self):
        """Seed 0, 64x48, tile 8: the pixels every shipped trajectory
        starts from.  A numpy whose array-bound ``integers`` draws
        differently fails here instead of moving every trajectory."""
        rng = np.random.default_rng(0)
        px = sample_tracking_pixels(64, 48, 8, "random", rng)
        assert px.dtype == np.int64
        assert px[:, 0].tolist() == [
            6, 12, 18, 24, 33, 45, 52, 63, 5, 12, 18, 29, 35, 44, 54, 62,
            0, 8, 16, 27, 35, 40, 48, 60, 2, 14, 19, 30, 35, 47, 54, 61,
            7, 12, 22, 27, 35, 45, 48, 60, 5, 10, 21, 28, 38, 42, 50, 61]
        assert px[:, 1].tolist() == [
            5, 2, 0, 0, 6, 7, 4, 5, 12, 15, 14, 8, 14, 8, 13, 9,
            22, 20, 18, 19, 16, 16, 21, 21, 28, 27, 31, 31, 29, 29, 29, 27,
            33, 37, 36, 34, 35, 39, 39, 34, 44, 42, 44, 42, 43, 47, 41, 44]
        assert rng.integers(1 << 30) == 52126395


class TestDeterministicStrategiesMatchLoops:
    @pytest.mark.parametrize("w,h,tile", GEOMETRIES)
    @pytest.mark.parametrize("strategy", ["center", "lowres"])
    def test_centres(self, w, h, tile, strategy):
        got = sample_tracking_pixels(w, h, tile, strategy)
        want = sampling_oracle.center_pixels(w, h, tile)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("w,h,tile", GEOMETRIES)
    def test_harris(self, w, h, tile):
        img = np.random.default_rng(w * h + tile).uniform(0, 1, (h, w, 3))
        got = sample_tracking_pixels(w, h, tile, "harris", image=img)
        want = sampling_oracle.block_argmax(harris_response(img), tile)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("w,h,tile", GEOMETRIES)
    def test_tile_argmax_ties_nan_and_inf(self, w, h, tile):
        """Coarse values tie often; ``-inf`` blocks, ``+inf`` and NaN
        resolve to their first occurrence, as ``np.argmax`` does."""
        rng = np.random.default_rng(tile)
        values = rng.integers(0, 3, (h, w)).astype(float)
        values[rng.random((h, w)) < 0.1] = np.inf
        values[rng.random((h, w)) < 0.05] = np.nan
        values[:, : w // 3] = -np.inf
        got = tile_argmax(values, tile)
        want = sampling_oracle.block_argmax(values, tile)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 12),
           st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_tile_argmax_property(self, w, h, tile, seed):
        values = np.random.default_rng(seed).integers(0, 4, (h, w)) * 0.5
        assert np.array_equal(tile_argmax(values, tile),
                              sampling_oracle.block_argmax(values, tile))

    @pytest.mark.parametrize("tile", [1, 3, 4, 8, 64])
    @pytest.mark.parametrize("uniform", [False, True])
    def test_mapping_weighted(self, tile, uniform):
        """The weighted per-tile draw: the same pixels as the per-block
        argmax over the same score, and the same generator state."""
        rng = np.random.default_rng(tile)
        gamma = rng.uniform(0, 1, (33, 45))
        image = rng.uniform(0, 1, (33, 45, 3))
        new, old = np.random.default_rng(5), np.random.default_rng(5)
        got = sample_mapping_pixels(gamma, image, tile=tile, rng=new,
                                    uniform_weights=uniform)
        weight = np.ones((33, 45)) if uniform else sobel_magnitude(image)
        want = sampling_oracle.block_argmax(
            weight * old.random((33, 45)), tile)
        assert got.weighted.dtype == want.dtype
        assert np.array_equal(got.weighted, want)
        assert _state(new) == _state(old)


class TestUnseenMask:
    def test_eqn2_threshold(self):
        gamma = np.array([[0.4, 0.5, 0.51, 0.9]])
        mask = unseen_mask(gamma)
        assert list(mask[0]) == [False, False, True, True]

    def test_threshold_constant(self):
        assert UNSEEN_TRANSMITTANCE == 0.5


class TestMappingSampling:
    def _gamma_and_image(self, seed=0):
        rng = np.random.default_rng(seed)
        gamma = np.zeros((H, W))
        gamma[:, W // 2:] = 0.9          # right half unseen
        image = rng.uniform(0, 1, (H, W, 3))
        image[:, :W // 4] = 0.5           # flat left quarter (texture-poor)
        return gamma, image

    def test_unseen_set_matches_mask(self):
        gamma, image = self._gamma_and_image()
        s = sample_mapping_pixels(gamma, image, tile=4,
                                  rng=np.random.default_rng(0))
        assert len(s.unseen) == (W // 2) * H
        assert np.all(s.unseen[:, 0] >= W // 2)

    def test_weighted_one_per_tile(self):
        gamma, image = self._gamma_and_image()
        s = sample_mapping_pixels(gamma, image, tile=4,
                                  rng=np.random.default_rng(0))
        assert len(s.weighted) == (W // 4) * (H // 4)

    def test_texture_bias(self):
        """Within a tile that straddles a texture boundary, the weighted
        draw prefers the textured half (Eqn. 3)."""
        rng = np.random.default_rng(1)
        boundary = W // 2 + 4          # mid-tile for tile=8
        image = np.zeros((H, W, 3))
        image[:, boundary:] = rng.uniform(0, 1, (H, W - boundary, 3))
        gamma = np.zeros((H, W))
        hits_textured = 0
        total = 0
        for trial in range(6):
            s = sample_mapping_pixels(gamma, image, tile=8,
                                      rng=np.random.default_rng(trial))
            straddling = s.weighted[
                (s.weighted[:, 0] >= boundary - 4)
                & (s.weighted[:, 0] < boundary + 4)]
            hits_textured += int((straddling[:, 0] >= boundary - 1).sum())
            total += len(straddling)
        assert total > 0
        assert hits_textured > total * 0.6

    def test_ablation_switches(self):
        gamma, image = self._gamma_and_image()
        only_unseen = sample_mapping_pixels(
            gamma, image, include_weighted=False,
            rng=np.random.default_rng(0))
        assert len(only_unseen.weighted) == 0
        only_weighted = sample_mapping_pixels(
            gamma, image, include_unseen=False,
            rng=np.random.default_rng(0))
        assert len(only_weighted.unseen) == 0

    def test_all_pixels_union_unique(self):
        gamma, image = self._gamma_and_image()
        s = sample_mapping_pixels(gamma, image, tile=4,
                                  rng=np.random.default_rng(0))
        combined = s.all_pixels
        assert len(np.unique(combined, axis=0)) == len(combined)
        assert len(combined) <= len(s.unseen) + len(s.weighted)

    def test_all_pixels_empty(self):
        s = MappingSamples(unseen=np.zeros((0, 2), dtype=int),
                           weighted=np.zeros((0, 2), dtype=int))
        assert s.all_pixels.shape == (0, 2)

    def test_uniform_weights_mode(self):
        gamma, image = self._gamma_and_image()
        s = sample_mapping_pixels(gamma, image, tile=4, uniform_weights=True,
                                  rng=np.random.default_rng(0))
        assert len(s.weighted) == (W // 4) * (H // 4)
